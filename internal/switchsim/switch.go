package switchsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
	"tango/internal/telemetry"
)

// PathKind identifies the forwarding tier a frame traversed.
type PathKind int

// Forwarding tiers, ordered fastest first.
const (
	// PathFast is TCAM / kernel fast-path forwarding.
	PathFast PathKind = iota
	// PathMid is the second TCAM bank of switches whose fast path splits
	// into two latency tiers (Figure 5).
	PathMid
	// PathSlow is software (user-space) forwarding.
	PathSlow
	// PathControl means the frame was punted to the controller.
	PathControl
)

// String implements fmt.Stringer.
func (p PathKind) String() string {
	switch p {
	case PathFast:
		return "fast"
	case PathMid:
		return "mid"
	case PathSlow:
		return "slow"
	default:
		return "control"
	}
}

// ErrTableFull is returned when a flow-mod cannot be installed anywhere.
// It corresponds to the OFPET_FLOW_MOD_FAILED / OFPFMFC_ALL_TABLES_FULL
// error on the wire.
var ErrTableFull = errors.New("switchsim: all tables full")

// entry is the emulator's bookkeeping for one installed rule: a flat record
// in the switch's entry arena (arena.go), addressed by its int32 handle.
// The hot fields the eviction heaps and the exact classifier read are all
// scalars, so touching them writes no GC-visible pointers.
type entry struct {
	rule      *flowtable.Rule
	insertSeq uint64
	useSeq    uint64
	traffic   uint64
	// tcamSeq orders TCAM residents of equal priority by when they entered
	// the TCAM, which is how tcamTier ranks their slots.
	tcamSeq uint64
	// self is this record's own handle; freed slots zero it, which is what
	// lets entryAt detect stale handles after free-list reuse.
	self int32
	// timedIdx is the entry's position in the switch's timed-rule list
	// (expiry.go); -1 while the rule carries no timeout. Expiry sweeps walk
	// only that list, so million-flow tables whose residents never expire
	// pay nothing for a handful of churning timed rules.
	timedIdx int32
	// kernelHead is the first of the microflow-cache slots derived from this
	// rule (0: none), chained through kernelSlot.next, so invalidation walks
	// the owner's live keys instead of the whole kernel table.
	kernelHead int32
	// inTCAM and inSoft say which tier serves the rule; every installed
	// rule is in exactly one. A cache move flips them.
	inTCAM bool
	inSoft bool
}

// kernelSlot is one exact-match microflow cache entry (OVS kernel table) in
// the switch's slot array. The kernel index maps a 5-tuple's address word,
// which is the frame's flowtable.FrameKey, to the first of the slots whose
// tuple has that word, chained through inext. owner is the installing
// rule's arena handle, 0 on a free slot; next links the owner's chain of
// slots, or the free list's, and 0 ends every chain.
type kernelSlot struct {
	key    packet.FiveTuple
	useSeq uint64
	owner  int32
	next   int32
	inext  int32
}

// Result reports the outcome of injecting one data-plane frame.
type Result struct {
	// Path is the tier that forwarded (or punted) the frame.
	Path PathKind
	// RTT is the simulated round-trip time observed by the prober.
	RTT time.Duration
	// Rule is the matched rule, nil on a total miss.
	Rule *flowtable.Rule
}

// Stats aggregates observable switch counters.
type Stats struct {
	FlowMods    uint64
	PacketsSeen uint64
	FastHits    uint64
	MidHits     uint64
	SlowHits    uint64
	Evictions   uint64
	Expirations uint64
}

// Switch is one emulated OpenFlow switch. All methods are safe for
// concurrent use; internally a single mutex serialises operations, which
// also matches the single-threaded agent loop of the modelled devices.
type Switch struct {
	mu      sync.Mutex
	profile Profile
	clock   simclock.Clock
	rng     *rand.Rand

	// rules holds every installed rule of both tiers in the one priority
	// order the agent charges shifts against, and is the switch's only rule
	// index: flow-mods and the exact classifier resolve rules through its
	// exact-key chains. Which tier serves a rule is its entry's
	// inTCAM/inSoft flag, and tcam is the TCAM's unit budget, charged for
	// the inTCAM entries (nil for ManageMicroflow). A cache move flips the
	// flags and moves the units; the table stays as it is.
	rules *flowtable.Table
	tcam  *flowtable.TCAM
	// kernel maps a frame's address word to the first slot in kslots that
	// holds it (slot 0 is the reserved "none"; kslots is nil except for
	// ManageMicroflow); kfree heads the chain of free slots and kernelLen
	// counts the live ones. A slot is on exactly one of the owner chains
	// and the free list, and a live one also on its word's index chain.
	kernel    flowtable.KeyIndex[int32]
	kslots    []kernelSlot
	kfree     int32
	kernelLen int

	events uint64

	// slabs hold every handed-out handle's rule and record (arena.go):
	// handles 1..handles, freeHandles the ones free for reuse, slabPool the
	// slabs Reset retired.
	slabs       []*slab
	slabPool    []*slab
	freeHandles []int32
	handles     int32

	// timedEnts lists the handles of entries whose rules carry idle/hard
	// timeouts, in schedule order; expiry sweeps iterate it instead of the
	// whole rule table. Entries unlink on free via their timedIdx
	// back-pointer (swap-remove), so the list only ever holds live handles.
	timedEnts []int32

	// evictIdx and promoteIdx are the policy-ordered indexes over TCAM and
	// software residents (evictindex.go); nil except for ManagePolicyCache.
	// staleIdx is the one of them that lists touched members, nil when
	// touches move no key.
	evictIdx   *handleHeap
	promoteIdx *handleHeap
	staleIdx   *handleHeap
	// lex is a LEX cache policy compiled to its key (policy.go), once per
	// (re)initialisation: the policy's only definition of its order.
	lex lexKey
	// customState is the per-switch scoring state of a CustomPolicy, nil
	// for LEX policies. It keys the two heaps above and tells them which
	// keys a touch moved; groups is the same state again when it is the
	// dest-aggregate one, which also picks the heaps' members.
	customState customState
	groups      *destAggState

	// detector, when attached via WithDetector, observes every data-plane
	// classification for the overflow-probing signature.
	detector *OverflowDetector

	// frame is the scratch decode target reused across SendPacketN calls so
	// the data-plane hot loop does not allocate per packet.
	frame packet.Frame

	// victims is delete's scratch list of matched rules, empty between
	// calls: bulk rule churn is one delete per rule, and a slice per delete
	// was most of an inspection's allocations.
	victims []*flowtable.Rule

	// defaultRule is the pre-installed table-miss punt rule, when present.
	// Although it occupies a TCAM slot, it is logically the last resort of
	// the whole pipeline: a frame matching only the default rule must still
	// consult the software tables before being punted.
	defaultRule *flowtable.Rule

	lastAddPriority uint16
	haveLastAdd     bool
	lastOpClass     openflow.FlowModCommand
	haveLastOp      bool

	// nextExpiry is the earliest instant, in Unix nanoseconds, any rule
	// with a timeout could expire; zero when no such rule exists.
	// removedQueue holds pending FLOW_REMOVED notifications, portQueue
	// pending PORT_STATUS ones.
	nextExpiry   int64
	removedQueue []*openflow.FlowRemoved
	portQueue    []*openflow.PortStatus
	portsDown    map[uint16]bool

	// config is the OFPT_SET_CONFIG state (miss_send_len etc.).
	config openflow.SwitchConfig

	stats Stats
	tel   switchTelemetry
}

// Option configures a Switch.
type Option func(*Switch)

// WithClock substitutes the clock (tests and the TCP daemon use this; the
// default is a fresh virtual clock).
func WithClock(c simclock.Clock) Option { return func(s *Switch) { s.clock = c } }

// WithSeed fixes the RNG seed for reproducible latency draws.
func WithSeed(seed int64) Option {
	return func(s *Switch) { s.rng = rand.New(rand.NewSource(seed)) }
}

// WithDefaultRoute pre-installs the priority-0 punt-to-controller rule that
// hardware switches install when they connect (it is why Figure 2(b) shows
// 2047 rather than 2048 fast-path flows).
func WithDefaultRoute() Option {
	return func(s *Switch) { s.installDefaultRoute() }
}

// New builds a switch from a profile.
func New(p Profile, opts ...Option) *Switch {
	s := &Switch{
		profile: p,
		clock:   simclock.NewVirtual(),
		rules:   flowtable.NewTable(p.ruleHint()),
	}
	s.initTCAM()
	if p.Kind == ManageMicroflow {
		s.kslots = make([]kernelSlot, 1, 1+p.kernelHint())
	}
	// Bind to the process-wide default telemetry (a no-op unless a command
	// installed one) before the indexes take its repair counter.
	s.tel.init(telemetry.Default(), telemetry.DefaultTracer(), p.Name)
	s.initIndexes()
	for _, o := range opts {
		o(s)
	}
	// A source is 4.9 KiB; seed the default one only when WithSeed did not
	// replace it. No option draws from it.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(42))
	}
	return s
}

func (p *Profile) softwareCap() int {
	if p.SoftwareCapacity > 0 {
		return p.SoftwareCapacity
	}
	return defaultSoftwareCapacity
}

// maxSizeHint caps every structure New sizes for its tier's capacity: a
// "virtually unlimited" software tier never actually fills, and past the
// cap a structure grows as it fills.
const maxSizeHint = 2048

// ruleHint sizes the rule table for the rules the tiers can hold, so
// probing installs that run straight to capacity never grow or rehash it;
// the tiers' own bounds always refuse first.
func (p *Profile) ruleHint() int {
	n := 0
	if p.Kind != ManageMicroflow {
		n = p.TCAM.CapacityNarrow
	}
	if p.Kind != ManageTCAMOnly {
		n += p.softwareCap()
	}
	return min(n, maxSizeHint)
}

// kernelHint sizes the microflow cache the same way: one entry per rule the
// software tier holds, or the cache's own bound (plus the entry that
// crosses it) when that is smaller.
func (p *Profile) kernelHint() int {
	n := p.ruleHint()
	if p.KernelCapacity > 0 {
		n = min(n, p.KernelCapacity+1)
	}
	return n
}

// initTCAM installs an empty TCAM budget (none for ManageMicroflow).
func (s *Switch) initTCAM() {
	if s.profile.Kind != ManageMicroflow {
		s.tcam = flowtable.NewTCAM(s.profile.TCAM)
	}
}

func (s *Switch) installDefaultRoute() {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, e := s.allocRule()
	r.Priority = 0
	r.Actions = []flowtable.Action{{Type: flowtable.ActionController}}
	e.insertSeq = s.nextEvent()
	if !s.place(e) {
		s.freeRule(e)
		return
	}
	_, _ = s.rules.Insert(r, s.clock.Now()) // always nil
	s.defaultRule = r
}

// Reset returns the switch to its power-on state: every flow table and the
// microflow cache are cleared, pending notifications and the agent's
// batching context are dropped, and the pre-installed default route (when
// the switch was built with one) is reinstalled. The clock, port link
// states, and cumulative counters survive, as they do across a real agent
// restart. Fault injection uses this to model mid-probe switch resets.
func (s *Switch) Reset() {
	s.mu.Lock()
	hadDefault := s.defaultRule != nil
	s.rules.Reset()
	s.initTCAM()
	s.resetKernel()
	s.resetArena()
	s.initIndexes()
	s.defaultRule = nil
	s.haveLastAdd, s.haveLastOp = false, false
	s.nextExpiry = 0
	s.removedQueue = nil
	s.portQueue = nil
	s.tel.resets.Add(1)
	if s.tel.enabled() {
		s.updateOccupancy()
	}
	s.mu.Unlock()
	if hadDefault {
		s.installDefaultRoute()
	}
}

// Profile returns the switch's profile.
func (s *Switch) Profile() Profile { return s.profile }

// Clock returns the switch's clock.
func (s *Switch) Clock() simclock.Clock { return s.clock }

// Now returns the current simulated instant.
func (s *Switch) Now() time.Time { return s.clock.Now() }

// Stats returns a snapshot of the switch counters.
func (s *Switch) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Switch) nextEvent() uint64 {
	s.events++
	return s.events
}

// RuleCount returns (tcam, kernel, software) rule counts.
func (s *Switch) RuleCount() (tcam, kernel, software int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tcam != nil {
		tcam = s.tcam.Len()
	}
	return tcam, s.kernelLen, s.softLen()
}

// softLen counts the software tier's rules: every rule the TCAM does not
// hold.
func (s *Switch) softLen() int {
	n := s.rules.Len()
	if s.tcam != nil {
		n -= s.tcam.Len()
	}
	return n
}

// FlowMod applies one flow-table operation, advancing the clock by the
// modelled control-channel cost. Errors mirror the OpenFlow errors a real
// switch would return.
func (s *Switch) FlowMod(fm *openflow.FlowMod) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	s.stats.FlowMods++
	s.tel.flowMods.Add(1)
	s.expireLocked(now)
	// Operation-class change flushes the agent's homogeneous batch.
	class := opClass(fm.Command)
	if s.haveLastOp && class != s.lastOpClass {
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.TypeSwitchDelta))
	}
	s.lastOpClass, s.haveLastOp = class, true
	var err error
	switch fm.Command {
	case openflow.FlowAdd:
		err = s.add(fm)
	case openflow.FlowModify, openflow.FlowModifyStrict:
		err = s.modify(fm)
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		err = s.delete(fm)
	default:
		err = fmt.Errorf("switchsim: unsupported flow-mod command %v", fm.Command)
	}
	s.noteFlowModDone(now, fm, err)
	return err
}

// opClass folds strict/non-strict command variants into add/mod/del.
func opClass(c openflow.FlowModCommand) openflow.FlowModCommand {
	switch c {
	case openflow.FlowModify, openflow.FlowModifyStrict:
		return openflow.FlowModify
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		return openflow.FlowDelete
	default:
		return openflow.FlowAdd
	}
}

// chargeAdd advances the clock by the cost of an add with the given number
// of displaced higher-priority TCAM entries.
func (s *Switch) chargeAdd(priority uint16, shifted int) {
	c := s.profile.Costs
	cost := c.AddBase + time.Duration(shifted)*c.ShiftUnit
	if s.haveLastAdd && priority != s.lastAddPriority {
		cost += c.AddPriorityDelta
	}
	s.haveLastAdd = true
	s.lastAddPriority = priority
	s.clock.Sleep(c.opCost(s.rng, cost))
}

// chargeInstall advances the clock by the cost of an accepted add of a rule
// at the given priority, before the rule enters the table. Hardware agents
// keep one sorted view of all rules, TCAM plus user-space virtual tables, so
// out-of-order insertion stays expensive even past the TCAM capacity — which
// is why the descending-priority curve of Figure 3(c) keeps its quadratic
// shape all the way to 5000 rules on a 2K TCAM. OVS does not shift.
func (s *Switch) chargeInstall(priority uint16) {
	if s.profile.Kind == ManageMicroflow {
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
		return
	}
	s.chargeAdd(priority, s.rules.CountHigher(priority))
}

func (s *Switch) add(fm *openflow.FlowMod) error {
	if r := s.rules.Find(&fm.Match, fm.Priority); r != nil {
		now := s.clock.Now()
		s.chargeInstall(fm.Priority)
		s.replace(r, fm, now)
		return nil
	}
	rule, e := s.allocRule()
	rule.Match = fm.Match
	rule.Priority = fm.Priority
	setFromAdd(rule, fm)
	e.insertSeq = s.nextEvent()
	e.useSeq = e.insertSeq
	now := s.clock.Now()
	if !s.place(e) {
		// Rejections are fast: the agent fails before touching hardware.
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
		s.freeRule(e)
		return ErrTableFull
	}
	s.chargeInstall(fm.Priority)
	// The table stamps the rule's install and last-use times. Insert's error
	// is always nil, and its precondition holds: add replaces an installed
	// identical rule before it gets here.
	_, _ = s.rules.Insert(rule, now)
	s.scheduleExpiry(rule)
	return nil
}

// setFromAdd copies what an ADD sets beyond match and priority.
func setFromAdd(r *flowtable.Rule, fm *openflow.FlowMod) {
	r.Actions, r.Cookie = fm.Actions, fm.Cookie
	r.IdleTimeout, r.HardTimeout = fm.IdleTimeout, fm.HardTimeout
	r.SendFlowRem = fm.Flags&openflow.FlagSendFlowRem != 0
}

// replace applies an ADD identical in match and priority to the installed
// rule r, at the cost of an add, whichever tier holds r. OpenFlow 1.0 (§4.6)
// removes the installed flow, counters included, and adds the new one, so
// r takes the ADD's actions, cookie, timeouts and flags, its counters
// restart, and its timers count from now. r keeps its tier and its place in
// the table and in the cache policy's order: nothing is allocated, evicted
// or tracked a second time.
func (s *Switch) replace(r *flowtable.Rule, fm *openflow.FlowMod, now time.Time) {
	setFromAdd(r, fm)
	r.Packets, r.Bytes = 0, 0
	r.InstalledAt = now.UnixNano()
	r.LastUsedAt = r.InstalledAt
	s.invalidateKernel(r)
	s.untimeEntry(s.entryOf(r))
	s.scheduleExpiry(r)
}

// place makes a new entry resident in the tier its switch kind and cache
// policy pick, evicting as the policy decides; false means no tier has room.
// A policy-cache rule lands in the TCAM if it fits or if the policy prefers
// it over the worst resident (the evicted element "may be the new element,
// in which case the cache state does not change"), and in software
// otherwise.
func (s *Switch) place(e *entry) bool {
	switch s.profile.Kind {
	case ManageTCAMOnly:
		return s.enterTCAM(e)
	case ManagePolicyCache:
		if w := e.rule.Match.Width(); s.tcamAdmits(w) && s.evictUntilFits(w, e) && s.enterTCAM(e) {
			return true
		}
	}
	if !s.softFits() {
		return false
	}
	s.enterSoft(e)
	return true
}

// softFits reports whether the software tier has room for one more rule.
func (s *Switch) softFits() bool { return s.softLen() < s.profile.softwareCap() }

// enterTCAM makes e a TCAM resident if its width fits, ranking it behind
// every earlier TCAM entrant.
func (s *Switch) enterTCAM(e *entry) bool {
	if !s.tcam.Take(e.rule.Match.Width()) {
		return false
	}
	e.inTCAM, e.inSoft = true, false
	e.tcamSeq = s.nextEvent()
	s.trackTCAM(e)
	return true
}

// enterSoft makes e a software resident.
func (s *Switch) enterSoft(e *entry) {
	e.inTCAM, e.inSoft = false, true
	s.trackSoft(e)
}

// tcamAdmits reports whether the TCAM mode can host entries of width w.
func (s *Switch) tcamAdmits(w flowtable.Width) bool {
	return s.tcam != nil && s.tcam.Admits(w)
}

// evictUntilFits evicts policy-worst TCAM entries (those worse than the
// contender; the eviction index's root, for every cache policy) into the
// software tier until width w fits. It returns false —
// undoing nothing, since partial eviction still leaves a valid state — when
// the remaining residents all order better than the contender.
func (s *Switch) evictUntilFits(w flowtable.Width, contender *entry) bool {
	if s.tcam.Fits(w) {
		return true
	}
	// Demoting a victim moves no other entry's key.
	ck := s.key(contender)
	for !s.tcam.Fits(w) {
		victim, vk := s.evictIdx.peek(s)
		if victim == nil || !vk.less(ck) {
			return false
		}
		if !s.demote(victim) {
			return false
		}
	}
	return true
}

// demote moves a TCAM resident into the software tier. It fails without
// side effects when the software tier is full, which in turn makes the
// triggering add fail with a table-full error — matching real agents, which
// reject flow-mods rather than silently discard rules.
func (s *Switch) demote(victim *entry) bool {
	if !s.softFits() {
		return false
	}
	s.untrack(victim)
	s.tcam.Release(victim.rule.Match.Width())
	s.enterSoft(victim)
	s.stats.Evictions++
	s.tel.evictions.Add(1)
	s.tel.hIdxDepth.Observe(float64(s.evictIdx.len()))
	return true
}

// promote moves a software entry into the TCAM, evicting as the policy
// allows; false leaves it in software.
func (s *Switch) promote(e *entry) bool {
	w := e.rule.Match.Width()
	if !s.tcamAdmits(w) || !s.evictUntilFits(w, e) {
		return false
	}
	s.untrack(e)
	s.enterTCAM(e)
	s.tel.promotions.Add(1)
	return true
}

func (s *Switch) modify(fm *openflow.FlowMod) error {
	r := s.rules.Find(&fm.Match, fm.Priority)
	if r == nil {
		// OpenFlow 1.0 MODIFY on a missing rule behaves like an add.
		return s.add(fm)
	}
	r.Actions = fm.Actions
	r.Cookie = fm.Cookie
	s.invalidateKernel(r)
	s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.ModBase))
	return nil
}

func (s *Switch) delete(fm *openflow.FlowMod) error {
	victims := s.victims[:0]
	switch k, exact := flowtable.ExactKey(&fm.Match); {
	case fm.Command == openflow.FlowDeleteStrict:
		if r := s.rules.Find(&fm.Match, fm.Priority); r != nil {
			victims = append(victims, r)
		}
	case exact:
		// A non-strict exact (src/32, dst/32) match covers only rules
		// pinning the same address pair, since Covers requires the victim's
		// prefixes to sit inside the /32s. So the victims all share its key,
		// and bulk rule churn walks one chain per delete, not the table.
		for r := s.rules.ExactRules(k); r != nil; r = r.NextExact() {
			if fm.Match.Covers(&r.Match) {
				victims = append(victims, r)
			}
		}
	default:
		for _, r := range s.rules.Rules() {
			if fm.Match.Covers(&r.Match) {
				victims = append(victims, r)
			}
		}
	}
	if len(victims) == 0 {
		// Deleting nothing is not an error in OpenFlow, but it still costs
		// a channel round trip.
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.DelBase))
		return nil
	}
	now := s.clock.Now()
	for _, r := range victims {
		s.noteRemoved(r, openflow.RemovedDelete, now)
		s.removeRule(r)
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.DelBase))
	}
	clear(victims)
	s.victims = victims[:0]
	return nil
}

func (s *Switch) removeRule(r *flowtable.Rule) {
	e := s.entryOf(r)
	s.untrack(e)
	s.customRemove(e)
	s.invalidateKernel(r)
	s.rules.Remove(r)
	inTCAM := e.inTCAM
	if inTCAM {
		s.tcam.Release(r.Match.Width())
	}
	if r == s.defaultRule {
		// The rule's storage recycles below; a dangling default pointer
		// would alias whatever rule reuses the slot.
		s.defaultRule = nil
	}
	s.freeRule(e)
	if inTCAM {
		// A freed TCAM slot is refilled by the best software resident —
		// Switch #1 "pushes the oldest software entry into TCAM whenever an
		// empty slot is available"; under other policies the policy-best
		// entry moves up.
		s.refillTCAM()
	}
}

// refillTCAM promotes policy-best software entries while TCAM space allows.
func (s *Switch) refillTCAM() {
	if s.profile.Kind != ManagePolicyCache {
		return
	}
	for {
		best := s.bestSoftwareEntry()
		if best == nil || !s.tcam.Fits(best.rule.Match.Width()) {
			return
		}
		if !s.promote(best) {
			return
		}
	}
}

// bestSoftwareEntry returns the policy-best TCAM-eligible software entry:
// the root of the promotion index.
func (s *Switch) bestSoftwareEntry() *entry {
	e, _ := s.promoteIdx.peek(s)
	return e
}

// invalidateKernel removes the microflow cache entries derived from rule r:
// the chain its arena record heads.
func (s *Switch) invalidateKernel(r *flowtable.Rule) {
	e := s.entryOf(r)
	if s.kslots == nil || e == nil {
		return
	}
	for sl := e.kernelHead; sl != 0; {
		next := s.kslots[sl].next
		s.unindexKernelSlot(sl)
		s.freeKernelSlot(sl)
		sl = next
	}
	e.kernelHead = 0
}

// kernelLookup returns the live slot caching flow ft, or 0.
func (s *Switch) kernelLookup(ft packet.FiveTuple) int32 {
	sl := s.kernel.Get(ft.Addrs)
	for sl != 0 && s.kslots[sl].key != ft {
		sl = s.kslots[sl].inext
	}
	return sl
}

// cacheMicroflow installs flow ft's kernel entry for the rule whose arena
// record is e, at the head of e's chain and of its address word's index
// chain. The slot array grows by doubling.
func (s *Switch) cacheMicroflow(ft packet.FiveTuple, e *entry) {
	sl := s.kfree
	if sl != 0 {
		s.kfree = s.kslots[sl].next
	} else {
		if len(s.kslots) == cap(s.kslots) {
			s.kslots = slices.Grow(s.kslots, len(s.kslots))
		}
		sl = int32(len(s.kslots))
		s.kslots = s.kslots[:sl+1]
	}
	s.kslots[sl] = kernelSlot{
		key: ft, useSeq: s.nextEvent(), owner: e.self, next: e.kernelHead, inext: s.kernel.Get(ft.Addrs),
	}
	e.kernelHead = sl
	s.kernel.Put(ft.Addrs, sl)
	s.kernelLen++
}

// unindexKernelSlot takes live slot sl off its address word's index chain.
func (s *Switch) unindexKernelSlot(sl int32) {
	ks := &s.kslots[sl]
	addr := ks.key.Addrs
	head := s.kernel.Get(addr)
	switch {
	case head != sl:
		p := &s.kslots[head]
		for p.inext != sl {
			p = &s.kslots[p.inext]
		}
		p.inext = ks.inext
	case ks.inext != 0:
		s.kernel.Put(addr, ks.inext)
	default:
		s.kernel.Del(addr)
	}
	s.kernelLen--
}

// freeKernelSlot puts slot sl, already off its index chain and its owner's
// chain, on the free list.
func (s *Switch) freeKernelSlot(sl int32) {
	s.kslots[sl] = kernelSlot{next: s.kfree}
	s.kfree = sl
}

// resetKernel empties the microflow cache, keeping the index's and the slot
// array's capacity.
func (s *Switch) resetKernel() {
	if s.kslots == nil {
		return
	}
	s.kernel.Reset()
	clear(s.kslots)
	s.kslots = s.kslots[:1]
	s.kfree = 0
	s.kernelLen = 0
}

// SendPacket injects a data-plane frame on inPort and returns the
// forwarding result with its simulated RTT. The clock advances by the RTT.
func (s *Switch) SendPacket(data []byte, inPort uint16) (Result, error) {
	return s.SendPacketN(data, inPort, 1)
}

// SendPacketN injects the same frame n times back to back, which traffic-
// initialization patterns use to drive a flow's packet counter to a target
// value. The pipeline decision (and the returned Result) is computed once
// for the burst; statistics advance by n and the clock by n RTT samples'
// worth of simulated time. A burst is equivalent to n sequential packets
// for every cache policy in the model: the policies read only the final
// attribute values, and mid-burst promotions could only move the flow to a
// faster tier earlier.
func (s *Switch) SendPacketN(data []byte, inPort uint16, n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("switchsim: burst size %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	s.expireLocked(now)
	if err := packet.DecodeInto(&s.frame, data); err != nil {
		return Result{}, err
	}
	return s.sendLocked(&s.frame, inPort, len(data), n, now), nil
}

// SendFrameN is SendPacketN for a frame the caller already decoded (size is
// the encoded length, which drives byte counters and latency models). The
// probing engine re-sends the same few frames tens of thousands of times, so
// skipping the per-call decode matters; results are identical to sending the
// frame's encoding because the pipeline only ever reads the decoded form.
// The frame is not retained past the call.
func (s *Switch) SendFrameN(f *packet.Frame, inPort uint16, size, n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("switchsim: burst size %d", n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	s.expireLocked(now)
	return s.sendLocked(f, inPort, size, n, now), nil
}

// sendLocked injects an n-packet burst of the decoded frame. Callers hold
// s.mu, have already run the expiry sweep, and pass the clock reading that
// sweep used — nothing between the sweep and the pipeline advances the
// clock, so reading it again per packet would only cost time.
func (s *Switch) sendLocked(f *packet.Frame, inPort uint16, size, n int, now time.Time) Result {
	s.stats.PacketsSeen += uint64(n)
	s.tel.packets.Add(int64(n))
	res := s.pipeline(f, inPort, size, now)
	if s.detector != nil {
		key, ok := flowtable.FrameKey(f)
		s.observeFrame(key, ok, res.Path)
	}
	if n > 1 {
		// Account the remaining n-1 touches on the matched rule.
		if res.Rule != nil {
			e := s.entryOf(res.Rule)
			res.Rule.Packets += uint64(n - 1)
			res.Rule.Bytes += uint64((n - 1) * size)
			if e != nil {
				e.traffic += uint64(n - 1)
				e.useSeq = s.nextEvent()
				s.noteTouch(e, uint64(n-1))
			}
			if e != nil && !e.inTCAM {
				s.maybePromote(e)
			}
		}
		s.clock.Sleep(time.Duration(n-1) * res.RTT)
	}
	s.clock.Sleep(res.RTT)
	if s.tel.enabled() {
		s.updateOccupancy() // data traffic promotes/evicts/caches entries
	}
	return res
}

// pipeline runs the frame through the table hierarchy.
func (s *Switch) pipeline(f *packet.Frame, inPort uint16, size int, now time.Time) Result {
	switch s.profile.Kind {
	case ManageMicroflow:
		return s.microflowPipeline(f, inPort, size, now)
	default:
		return s.hardwarePipeline(f, inPort, size, now)
	}
}

func (s *Switch) hardwarePipeline(f *packet.Frame, inPort uint16, size int, now time.Time) Result {
	if res, ok := s.classifyExact(f, inPort, size, now); ok {
		return res
	}
	// The reference walk, one tier at a time: a TCAM match beats any
	// software match whatever their priorities, but the default route,
	// though it sits in the TCAM, is the last resort of the whole pipeline.
	if r := s.rules.LookupWhere(f, inPort, func(r *flowtable.Rule) bool { return s.ent(r.Ext).inTCAM }); r != nil && r != s.defaultRule {
		return s.tcamHit(s.ent(r.Ext), r, size, now)
	}
	if r := s.rules.LookupWhere(f, inPort, func(r *flowtable.Rule) bool { return s.ent(r.Ext).inSoft }); r != nil {
		return s.softHit(s.ent(r.Ext), r, size, now)
	}
	return s.punt()
}

// classifyExact short-circuits the per-tier lookups for the dominant probing
// workload: every installed rule an exact IPv4 match, at most the priority-0
// default route wild. The switch-wide exact index then answers the whole
// classification with one open-addressing probe — a frame's key selects the
// only rule in either tier that could match it — instead of two tier
// lookups that each rehash the key. ok=false defers to the reference tier
// walk whenever the workload leaves the fast path's assumptions (other wild
// rules, key shared by several rules, ambiguity against the default route).
func (s *Switch) classifyExact(f *packet.Frame, inPort uint16, size int, now time.Time) (Result, bool) {
	defaultOnly := false
	if s.rules.WildLen() != 0 {
		// Tolerate exactly one wild resident when it is the TCAM-resident
		// default route: the reference walk never forwards through it (the
		// TCAM pass skips it and a frame matching nothing else punts
		// untouched), so only shadowing against equal-or-lower-priority exact
		// rules — guarded below — could distinguish the paths.
		d := s.defaultRule
		if d == nil || s.rules.WildSingleton() != d || !s.ent(d.Ext).inTCAM {
			return Result{}, false
		}
		defaultOnly = true
	}
	k, ok := flowtable.FrameKey(f)
	if !ok {
		// Non-IPv4 frames cannot match exact-indexed rules.
		return s.punt(), true
	}
	r := s.rules.ExactRules(k)
	if r == nil {
		return s.punt(), true
	}
	if r.NextExact() != nil {
		// Several rules share the key; let the reference path pick.
		return Result{}, false
	}
	if defaultOnly && r.Priority <= s.defaultRule.Priority {
		return Result{}, false
	}
	if !r.Match.MatchesRest(f, inPort) {
		// The rule pins more than the addresses (port, protocol); no other
		// exact rule shares the key, so the frame misses every rule.
		return s.punt(), true
	}
	e := s.ent(r.Ext)
	if e.inTCAM {
		return s.tcamHit(e, r, size, now), true
	}
	return s.softHit(e, r, size, now), true
}

// tcamHit accounts a hardware-table hit: touch, then forward or punt by the
// rule's actions and latency tier.
func (s *Switch) tcamHit(e *entry, r *flowtable.Rule, size int, now time.Time) Result {
	s.touch(e, r, size, now)
	if isController(r) {
		s.tel.controlMiss.Add(1)
		return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
	}
	path, dist := s.tcamTier(e)
	if path == PathFast {
		s.stats.FastHits++
		s.tel.fastHits.Add(1)
	} else {
		s.stats.MidHits++
		s.tel.midHits.Add(1)
	}
	return Result{Path: path, RTT: dist.Sample(s.rng), Rule: r}
}

// softHit accounts a software-table hit, including the promotion check the
// reference walk performs before classifying the frame's path.
func (s *Switch) softHit(e *entry, r *flowtable.Rule, size int, now time.Time) Result {
	s.touch(e, r, size, now)
	s.maybePromote(e)
	if isController(r) {
		s.tel.controlMiss.Add(1)
		return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
	}
	s.stats.SlowHits++
	s.tel.slowHits.Add(1)
	return Result{Path: PathSlow, RTT: s.profile.SlowPath.Sample(s.rng), Rule: r}
}

// punt accounts a total miss.
func (s *Switch) punt() Result {
	s.tel.controlMiss.Add(1)
	return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng)}
}

// tcamTier maps a TCAM resident to its latency tier based on its physical
// slot: the first MidPathSlots entries run at FastPath speed, the rest at
// MidPath (Figure 5's two fast banks). With MidPathSlots == 0 the whole
// TCAM is fast. Slots are ranked by priority, then by when the entry entered
// the TCAM.
//
// The rank is counted by walking the one table in priority order, software
// residents included, reading a rule and its entry per step. The walk stops
// once the entry is in the middle bank, once the TCAM residents not yet
// passed could no longer put it there (so a TCAM no fuller than the fast
// bank needs no walk), and at the first rule of the entry's priority
// installed after the entry last entered the TCAM: the table keeps equal
// priorities in install order, so no later rule entered the TCAM earlier. A
// rule that never left the TCAM thus walks only the rules ahead of it. Only
// mid-path profiles pay for the walk, once per TCAM hit.
func (s *Switch) tcamTier(e *entry) (PathKind, LatencyDist) {
	slots := s.profile.MidPathSlots
	if slots <= 0 || s.profile.MidPath.Mean == 0 {
		return PathFast, s.profile.FastPath
	}
	p := e.rule.Priority
	// left counts the other TCAM residents the walk has not passed yet.
	ahead, left := 0, s.tcam.Len()-1
	for _, r := range s.rules.Rules() {
		if ahead+left < slots || r.Priority < p {
			break // nothing later can rank ahead often enough
		}
		o := s.ent(r.Ext)
		if r.Priority == p && o.insertSeq > e.tcamSeq {
			break
		}
		if !o.inTCAM || o == e {
			continue
		}
		left--
		if r.Priority > p || o.tcamSeq < e.tcamSeq {
			if ahead++; ahead == slots {
				return PathMid, s.profile.MidPath
			}
		}
	}
	return PathFast, s.profile.FastPath
}

// maybePromote swaps a software entry into TCAM when the cache policy now
// prefers it over the worst resident — this is how probing "a flow that was
// not initially cached might cause some other flow to be evicted".
func (s *Switch) maybePromote(e *entry) {
	if s.profile.Kind == ManagePolicyCache && !e.inTCAM {
		s.promote(e)
	}
}

func (s *Switch) microflowPipeline(f *packet.Frame, inPort uint16, size int, now time.Time) Result {
	ft, ftOK := f.FiveTuple()
	if ftOK {
		if sl := s.kernelLookup(ft); sl != 0 {
			ks := &s.kslots[sl]
			ks.useSeq = s.nextEvent()
			owner := s.ent(ks.owner)
			r := owner.rule
			s.touch(owner, r, size, now)
			if isController(r) {
				s.tel.controlMiss.Add(1)
				return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
			}
			s.stats.FastHits++
			s.tel.fastHits.Add(1)
			return Result{Path: PathFast, RTT: s.profile.FastPath.Sample(s.rng), Rule: r}
		}
	}
	if r := s.rules.Lookup(f, inPort); r != nil {
		e := s.entryOf(r)
		s.touch(e, r, size, now)
		if isController(r) {
			s.tel.controlMiss.Add(1)
			return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
		}
		// Install the exact-match microflow entry so the flow's next packet
		// takes the kernel fast path (the 1-to-N user→kernel mapping).
		if ftOK {
			s.cacheMicroflow(ft, e)
			s.evictKernelIfNeeded()
		}
		s.stats.SlowHits++
		s.tel.slowHits.Add(1)
		return Result{Path: PathSlow, RTT: s.profile.SlowPath.Sample(s.rng), Rule: r}
	}
	s.tel.controlMiss.Add(1)
	return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng)}
}

// evictKernelIfNeeded applies LRU eviction to the kernel microflow cache
// when a capacity is configured. The victim leaves its owner's chain with
// it, so a chain never holds more than the owner's live kernel entries.
func (s *Switch) evictKernelIfNeeded() {
	cap := s.profile.KernelCapacity
	if cap <= 0 || s.kernelLen <= cap {
		return
	}
	victim := int32(0)
	for sl := 1; sl < len(s.kslots); sl++ {
		ks := &s.kslots[sl]
		if ks.owner != 0 && (victim == 0 || ks.useSeq < s.kslots[victim].useSeq) {
			victim = int32(sl)
		}
	}
	s.unindexKernelSlot(victim)
	ks := &s.kslots[victim]
	link := &s.ent(ks.owner).kernelHead
	for *link != victim {
		link = &s.kslots[*link].next
	}
	*link = ks.next
	s.freeKernelSlot(victim)
	s.stats.Evictions++
	s.tel.evictions.Add(1)
}

func (s *Switch) touch(e *entry, r *flowtable.Rule, size int, now time.Time) {
	r.Touch(size, now)
	if e != nil {
		e.useSeq = s.nextEvent()
		e.traffic++
		s.noteTouch(e, 1)
	}
}

func isController(r *flowtable.Rule) bool {
	for _, a := range r.Actions {
		if a.Type == flowtable.ActionController {
			return true
		}
	}
	// An empty action list drops the frame; it does not punt.
	return false
}

// InTCAM reports whether the rule identified by (match, priority) currently
// resides in the hardware table. Tests and experiments use it as ground
// truth for cache state.
func (s *Switch) InTCAM(m *flowtable.Match, priority uint16) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.rules.Find(m, priority)
	if r == nil {
		return false
	}
	e := s.entryOf(r)
	return e != nil && e.inTCAM
}
