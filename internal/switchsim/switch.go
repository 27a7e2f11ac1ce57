package switchsim

import (
	"errors"
	"fmt"
	"math/rand"
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
// Attribute sequence numbers are global and survive moves between tables,
// unlike the per-table stamps flowtable keeps. The hot fields the eviction
// heaps and the exact classifier read are all scalars, so touching them
// writes no GC-visible pointers.
type entry struct {
	rule *flowtable.Rule
	// kernelKeys records the microflow-cache keys derived from this rule, so
	// invalidation walks the owner's few keys instead of the whole kernel
	// table. Keys whose cache slot was since evicted or re-owned are skipped
	// by an ownership check, so stale keys are harmless.
	kernelKeys []packet.FiveTuple
	insertSeq  uint64
	useSeq     uint64
	traffic    uint64
	// self is this record's own handle; freed slots zero it, which is what
	// lets entryAt detect stale handles after free-list reuse.
	self int32
	// heapIdx is the entry's position in the eviction/promotion index
	// (evictindex.go); -1 while the entry is in neither heap.
	heapIdx int32
	// nextKey chains the tracked entries sharing one exact-match key
	// (duplicate-add phantoms); 0 terminates. The exact index (keyindex.go)
	// stores only the head handle.
	nextKey int32
	// timedIdx is the entry's position in the switch's timed-rule list
	// (expiry.go); -1 while the rule carries no timeout. Expiry sweeps walk
	// only that list, so million-flow tables whose residents never expire
	// pay nothing for a handful of churning timed rules.
	timedIdx int32
	inTCAM   bool
	// inSoft mirrors software-table residency the way inTCAM mirrors TCAM
	// residency; together they let the exact-match classifier skip the
	// per-tier table lookups.
	inSoft bool
}

// kernelEntry is one exact-match microflow cache entry (OVS kernel table),
// stored by value so the kernel map needs no per-entry allocation. owner is
// the installing rule's arena handle.
type kernelEntry struct {
	useSeq uint64
	owner  int32
}

// Result reports the outcome of injecting one data-plane frame.
type Result struct {
	// Path is the tier that forwarded (or punted) the frame.
	Path PathKind
	// RTT is the simulated round-trip time observed by the prober.
	RTT time.Duration
	// OutPort is the forwarding destination for PathFast/Mid/Slow when the
	// matched action was an output.
	OutPort uint16
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
	ControlMiss uint64
	Evictions   uint64
	Promotions  uint64
	Expirations uint64
	Resets      uint64
}

// Switch is one emulated OpenFlow switch. All methods are safe for
// concurrent use; internally a single mutex serialises operations, which
// also matches the single-threaded agent loop of the modelled devices.
type Switch struct {
	mu      sync.Mutex
	profile Profile
	clock   simclock.Clock
	rng     *rand.Rand

	tcam     *flowtable.TCAM  // nil for ManageMicroflow
	software *flowtable.Table // nil for ManageTCAMOnly
	kernel   map[packet.FiveTuple]kernelEntry

	events uint64

	// entries is the flat entry arena (arena.go): slot 0 is the reserved nil
	// handle, freeEnts the reusable-slot free list. exact maps every tracked
	// rule's packed exact-match word to its head handle and wildTracked
	// holds the non-indexable residue. Together they are the switch's record
	// of installed rules (including duplicate-add phantoms resident in no
	// table): flow-mod deletes resolve their victims from one key chain
	// instead of scanning all tracked rules, and expiry sweeps iterate both.
	entries     []entry
	freeEnts    []int32
	exact       exactIndex
	wildTracked []*flowtable.Rule

	// timedEnts lists the handles of entries whose rules carry idle/hard
	// timeouts, in schedule order; expiry sweeps iterate it instead of the
	// whole tracked-rule set. Entries unlink on free via their timedIdx
	// back-pointer (swap-remove), so the list only ever holds live handles.
	timedEnts []int32

	// Rule storage: rules need stable addresses (tables hold *Rule), so they
	// come from append-only slabs; removed rules recycle through freeRules,
	// and Reset retires whole slabs to slabPool for reuse.
	ruleChunk []flowtable.Rule
	ruleUsed  int
	liveSlabs [][]flowtable.Rule
	slabPool  [][]flowtable.Rule
	freeRules []*flowtable.Rule

	// evictIdx and promoteIdx are the policy-ordered indexes over TCAM and
	// software residents (evictindex.go); nil except for ManagePolicyCache.
	// dynPolicy records whether the LEX cache policy reads attributes that
	// change on data-plane touches (use time, traffic), which is what makes
	// touch paths pay an O(log n) index fixup.
	evictIdx   *handleHeap
	promoteIdx *handleHeap
	dynPolicy  bool
	// better is the cache policy's comparator, compiled once per
	// (re)initialisation — hot paths call it instead of Policy.Better.
	better func(a, b *entry) bool
	// customState is the per-switch scoring state of a CustomPolicy, nil
	// for LEX policies. It orders the two heaps above through better and
	// repairs them on every touch; groups is the same state again when it
	// is the dest-aggregate one, which also picks the heaps' members.
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

	// nextExpiry is the earliest instant any rule with a timeout could
	// expire; zero when no such rule exists. removedQueue holds pending
	// FLOW_REMOVED notifications, portQueue pending PORT_STATUS ones.
	nextExpiry   time.Time
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
		rng:     rand.New(rand.NewSource(42)),
	}
	switch p.Kind {
	case ManageTCAMOnly:
		s.tcam = flowtable.NewTCAM(p.TCAM)
	case ManagePolicyCache:
		s.tcam = flowtable.NewTCAM(p.TCAM)
		s.software = &flowtable.Table{Capacity: p.softwareCap()}
	case ManageMicroflow:
		s.software = &flowtable.Table{Capacity: p.softwareCap()}
		s.kernel = make(map[packet.FiveTuple]kernelEntry)
	}
	s.exact.init(s.trackedHint())
	s.initIndexes()
	// Bind to the process-wide default telemetry (a no-op unless a command
	// installed one); WithTelemetry overrides it below.
	s.tel.init(telemetry.Default(), telemetry.DefaultTracer(), p.Name)
	for _, o := range opts {
		o(s)
	}
	return s
}

func (p Profile) softwareCap() int {
	if p.SoftwareCapacity > 0 {
		return p.SoftwareCapacity
	}
	return defaultSoftwareCapacity
}

func (s *Switch) installDefaultRoute() {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, e := s.allocEntry()
	r := s.newRule()
	r.Priority = 0
	r.Actions = []flowtable.Action{{Type: flowtable.ActionController}}
	e.rule, e.insertSeq = r, s.nextEvent()
	if s.tcam != nil {
		if _, err := s.tcam.Insert(r, s.clock.Now()); err == nil {
			e.inTCAM = true
			s.trackTCAM(e)
		}
	} else if s.software != nil {
		_, _ = s.software.Insert(r, s.clock.Now())
	}
	r.Ext = h
	s.trackRule(r)
	s.defaultRule = r
}

// trackedHint sizes the exact index for the full hierarchy up front: probing
// installs run straight to capacity, and incremental growth would double the
// rehash traffic. "Virtually unlimited" software tables are capped — they
// never actually fill.
func (s *Switch) trackedHint() int {
	hint := s.profile.TCAM.CapacityNarrow + s.profile.softwareCap()
	if hint > 2048 {
		hint = 2048
	}
	return hint
}

// trackRule registers an installed rule in the tracked-rule index. Rules
// sharing one exact key chain behind the index's head handle in insertion
// order.
func (s *Switch) trackRule(r *flowtable.Rule) {
	if k, ok := flowtable.ExactKey(&r.Match); ok {
		h := r.Ext
		head := s.exact.get(k)
		if head == 0 {
			s.exact.put(k, h)
			return
		}
		tail := &s.entries[head]
		for tail.nextKey != 0 {
			tail = &s.entries[tail.nextKey]
		}
		tail.nextKey = h
		return
	}
	s.wildTracked = append(s.wildTracked, r)
}

// untrackRule removes r from the tracked-rule index, unlinking it from its
// key chain (and updating or deleting the index head as needed).
func (s *Switch) untrackRule(r *flowtable.Rule) {
	if k, ok := flowtable.ExactKey(&r.Match); ok {
		h := r.Ext
		e := s.entryAt(h)
		if e == nil {
			return
		}
		head := s.exact.get(k)
		if head == h {
			if e.nextKey != 0 {
				s.exact.set(k, e.nextKey)
			} else {
				s.exact.del(k)
			}
			e.nextKey = 0
			return
		}
		for prev := head; prev != 0; {
			pe := &s.entries[prev]
			if pe.nextKey == h {
				pe.nextKey = e.nextKey
				e.nextKey = 0
				return
			}
			prev = pe.nextKey
		}
		return
	}
	for i, rr := range s.wildTracked {
		if rr == r {
			s.wildTracked = append(s.wildTracked[:i], s.wildTracked[i+1:]...)
			return
		}
	}
}

// forEachTracked visits every tracked rule. Visit order is deterministic
// (index slot order, then chain order, then the wild residue) but otherwise
// unspecified, as it was when tracking lived in a map.
func (s *Switch) forEachTracked(fn func(r *flowtable.Rule)) {
	for _, h := range s.exact.slots {
		for h != 0 {
			e := &s.entries[h]
			fn(e.rule)
			h = e.nextKey
		}
	}
	for _, r := range s.wildTracked {
		fn(r)
	}
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
	switch s.profile.Kind {
	case ManageTCAMOnly:
		s.tcam = flowtable.NewTCAM(s.profile.TCAM)
	case ManagePolicyCache:
		s.tcam = flowtable.NewTCAM(s.profile.TCAM)
		s.software = &flowtable.Table{Capacity: s.profile.softwareCap()}
	case ManageMicroflow:
		s.software = &flowtable.Table{Capacity: s.profile.softwareCap()}
		for k := range s.kernel {
			delete(s.kernel, k)
		}
	}
	s.exact.reset()
	s.wildTracked = s.wildTracked[:0]
	s.resetArena()
	s.initIndexes()
	s.defaultRule = nil
	s.haveLastAdd, s.haveLastOp = false, false
	s.nextExpiry = time.Time{}
	s.removedQueue = nil
	s.portQueue = nil
	s.stats.Resets++
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
	if s.software != nil {
		software = s.software.Len()
	}
	return tcam, len(s.kernel), software
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

func (s *Switch) add(fm *openflow.FlowMod) error {
	h, e := s.allocEntry()
	rule := s.newRule()
	rule.Match = fm.Match
	rule.Priority = fm.Priority
	rule.Actions = fm.Actions
	rule.Cookie = fm.Cookie
	rule.IdleTimeout = fm.IdleTimeout
	rule.HardTimeout = fm.HardTimeout
	rule.SendFlowRem = fm.Flags&openflow.FlagSendFlowRem != 0
	e.rule, e.insertSeq = rule, s.nextEvent()
	e.useSeq = e.insertSeq
	now := s.clock.Now()

	switch s.profile.Kind {
	case ManageTCAMOnly:
		shifted := s.tcam.CountHigher(fm.Priority)
		if _, err := s.tcam.Insert(rule, now); err != nil {
			// Rejections are fast: the agent fails before touching hardware.
			s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
			s.freeEntry(e)
			s.freeRule(rule)
			return ErrTableFull
		}
		s.chargeAdd(fm.Priority, shifted)
		e.inTCAM = true

	case ManagePolicyCache:
		if err := s.addPolicyCache(rule, e, now); err != nil {
			s.freeEntry(e)
			s.freeRule(rule)
			return err
		}

	case ManageMicroflow:
		if _, err := s.software.Insert(rule, now); err != nil {
			s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
			s.freeEntry(e)
			s.freeRule(rule)
			return ErrTableFull
		}
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
	}
	rule.Ext = h
	s.trackRule(rule)
	s.scheduleExpiry(rule, s.clock.Now())
	return nil
}

// addPolicyCache implements the Switch #1 style hierarchy: the rule lands in
// TCAM if it fits or if the cache policy prefers it over a current resident;
// otherwise it goes to the software table. Priority-shift costs are charged
// against the combined resident rule set: the agent keeps one sorted view
// of all rules (TCAM plus user-space virtual tables), so out-of-order
// insertion stays expensive even past the TCAM capacity — which is why the
// descending-priority curve of Figure 3(c) keeps its quadratic shape all
// the way to 5000 rules on a 2K TCAM.
func (s *Switch) addPolicyCache(rule *flowtable.Rule, e *entry, now time.Time) error {
	width := rule.Match.Width()
	eligible := s.tcamAdmits(width)
	shifted := s.tcam.CountHigher(rule.Priority) + s.software.CountHigher(rule.Priority)
	if eligible && s.tcam.Fits(width) {
		tcamLen := s.tcam.Len()
		if _, err := s.tcam.Insert(rule, now); err == nil {
			s.chargeAdd(rule.Priority, shifted)
			e.inTCAM = true
			// A duplicate (match, priority) add overwrites in place and
			// leaves the resident rule's entry as the index member.
			if s.tcam.Len() > tcamLen {
				s.trackTCAM(e)
			}
			return nil
		}
	}
	if eligible {
		// Cache full: does the policy prefer the new flow over the worst
		// resident? (The evicted element "may be the new element, in which
		// case the cache state does not change".)
		if victim := s.worstTCAMEntry(); victim != nil && s.better(e, victim) {
			if s.evictUntilFits(width, e) {
				tcamLen := s.tcam.Len()
				if _, err := s.tcam.Insert(rule, now); err == nil {
					s.chargeAdd(rule.Priority, shifted)
					e.inTCAM = true
					if s.tcam.Len() > tcamLen {
						s.trackTCAM(e)
					}
					return nil
				}
			}
		}
	}
	softLen := s.software.Len()
	if _, err := s.software.Insert(rule, now); err != nil {
		s.clock.Sleep(s.profile.Costs.opCost(s.rng, s.profile.Costs.AddBase))
		return ErrTableFull
	}
	s.chargeAdd(rule.Priority, shifted)
	if s.software.Len() > softLen {
		e.inSoft = true
		s.trackSoft(e)
	}
	return nil
}

// tcamAdmits reports whether the TCAM mode can host entries of width w.
func (s *Switch) tcamAdmits(w flowtable.Width) bool {
	if s.tcam == nil {
		return false
	}
	if s.tcam.Config().Mode == flowtable.ModeSingleWide && w == flowtable.WidthL2L3 {
		return false
	}
	return true
}

// worstTCAMEntry returns the policy's eviction candidate among TCAM
// residents: the root of the eviction index, for every cache policy.
func (s *Switch) worstTCAMEntry() *entry {
	return s.evictIdx.peek(s.entries)
}

// evictUntilFits evicts policy-worst TCAM entries (those worse than the
// contender) into the software table until width w fits. It returns false —
// undoing nothing, since partial eviction still leaves a valid state — when
// the remaining residents all order better than the contender.
func (s *Switch) evictUntilFits(w flowtable.Width, contender *entry) bool {
	for !s.tcam.Fits(w) {
		victim := s.worstTCAMEntry()
		if victim == nil || !s.better(contender, victim) {
			return false
		}
		if !s.demote(victim) {
			return false
		}
	}
	return true
}

// demote moves a TCAM resident into the software table. It fails without
// side effects when the software table cannot absorb the victim, which in
// turn makes the triggering add fail with a table-full error — matching
// real agents, which reject flow-mods rather than silently discard rules.
// The software admission check runs before the TCAM removal: Table.Insert
// restamps the rule's per-table sequence, so removing first keeps the TCAM's
// binary-searched removal working off a valid key.
func (s *Switch) demote(victim *entry) bool {
	if !s.software.CanInsert(victim.rule) {
		return false
	}
	if !s.tcam.Remove(victim.rule) {
		return false
	}
	s.untrack(victim)
	victim.inTCAM = false
	softLen := s.software.Len()
	if _, err := s.software.Insert(victim.rule, s.clock.Now()); err != nil {
		// Unreachable after CanInsert; restore the TCAM copy defensively.
		_, _ = s.tcam.Insert(victim.rule, s.clock.Now())
		victim.inTCAM = true
		s.trackTCAM(victim)
		return false
	}
	if s.software.Len() > softLen {
		victim.inSoft = true
		s.trackSoft(victim)
	}
	s.stats.Evictions++
	s.tel.evictions.Add(1)
	if s.evictIdx != nil {
		s.tel.hIdxDepth.Observe(float64(s.evictIdx.len()))
	}
	return true
}

// promote moves a software entry into TCAM, evicting as needed.
func (s *Switch) promote(e *entry) bool {
	w := e.rule.Match.Width()
	if !s.tcamAdmits(w) {
		return false
	}
	if !s.tcam.Fits(w) && !s.evictUntilFits(w, e) {
		return false
	}
	if !s.software.Remove(e.rule) {
		return false
	}
	e.inSoft = false
	s.untrack(e)
	tcamLen := s.tcam.Len()
	if _, err := s.tcam.Insert(e.rule, s.clock.Now()); err != nil {
		softLen := s.software.Len()
		_, _ = s.software.Insert(e.rule, s.clock.Now())
		if s.software.Len() > softLen {
			e.inSoft = true
			s.trackSoft(e)
		}
		return false
	}
	e.inTCAM = true
	if s.tcam.Len() > tcamLen {
		s.trackTCAM(e)
	}
	s.stats.Promotions++
	s.tel.promotions.Add(1)
	return true
}

// locate finds the live rule with the same match and priority, asking the
// tables' lookup indexes first. The tracked-rule fallback only matters for
// rules that are tracked but resident in no table (duplicate-add leftovers).
func (s *Switch) locate(m *flowtable.Match, priority uint16) *flowtable.Rule {
	if s.tcam != nil {
		if r := s.tcam.Find(m, priority); r != nil {
			return r
		}
	}
	if s.software != nil {
		if r := s.software.Find(m, priority); r != nil {
			return r
		}
	}
	if k, ok := flowtable.ExactKey(m); ok {
		for h := s.exact.get(k); h != 0; {
			e := &s.entries[h]
			if e.rule.Priority == priority && e.rule.Match.Same(m) {
				return e.rule
			}
			h = e.nextKey
		}
		return nil
	}
	for _, r := range s.wildTracked {
		if r.Priority == priority && r.Match.Same(m) {
			return r
		}
	}
	return nil
}

func (s *Switch) modify(fm *openflow.FlowMod) error {
	r := s.locate(&fm.Match, fm.Priority)
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
	strict := fm.Command == openflow.FlowDeleteStrict
	victims := s.victims[:0]
	if k, ok := flowtable.ExactKey(&fm.Match); ok {
		// An exact (src/32, dst/32) delete match can only hit rules pinning
		// the same address pair — strict by definition, non-strict because
		// Covers requires the victim's prefixes to sit inside the /32s. So
		// the victims all chain behind one exact-index head (same-bucket
		// keys), which turns the dominant cost of bulk rule churn (a full
		// tracked-rule scan per delete) into a handful of comparisons.
		for h := s.exact.get(k); h != 0; {
			e := &s.entries[h]
			r := e.rule
			if strict {
				if r.Priority == fm.Priority && r.Match.Same(&fm.Match) {
					victims = append(victims, r)
				}
			} else if fm.Match.Covers(&r.Match) {
				victims = append(victims, r)
			}
			h = e.nextKey
		}
	} else if strict {
		for _, r := range s.wildTracked {
			if r.Priority == fm.Priority && r.Match.Same(&fm.Match) {
				victims = append(victims, r)
			}
		}
	} else {
		s.forEachTracked(func(r *flowtable.Rule) {
			if fm.Match.Covers(&r.Match) {
				victims = append(victims, r)
			}
		})
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
	s.untrackRule(r)
	if e != nil {
		s.untrack(e)
		s.customRemove(e)
	}
	s.invalidateKernel(r)
	r.Ext = 0
	if r == s.defaultRule {
		// The rule's storage recycles below; a dangling default pointer
		// would alias whatever rule reuses the slot.
		s.defaultRule = nil
	}
	if e != nil && e.inTCAM {
		s.tcam.Remove(r)
		s.freeEntry(e)
		s.freeRule(r)
		// A freed TCAM slot is refilled by the best software resident —
		// Switch #1 "pushes the oldest software entry into TCAM whenever an
		// empty slot is available"; under other policies the policy-best
		// entry moves up.
		s.refillTCAM()
		return
	}
	if s.software != nil {
		s.software.Remove(r)
	}
	if e != nil {
		s.freeEntry(e)
	}
	s.freeRule(r)
}

// refillTCAM promotes policy-best software entries while TCAM space allows.
func (s *Switch) refillTCAM() {
	if s.software == nil || s.profile.Kind != ManagePolicyCache {
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
	return s.promoteIdx.peek(s.entries)
}

// invalidateKernel removes microflow cache entries derived from rule r. The
// owner's recorded keys bound the walk; the ownership check skips keys whose
// slot was evicted and re-filled by another rule since.
func (s *Switch) invalidateKernel(r *flowtable.Rule) {
	if s.kernel == nil {
		return
	}
	if e := s.entryOf(r); e != nil {
		for _, ft := range e.kernelKeys {
			if ke, ok := s.kernel[ft]; ok && ke.owner == e.self {
				delete(s.kernel, ft)
			}
		}
		e.kernelKeys = e.kernelKeys[:0]
		return
	}
	for ft, ke := range s.kernel {
		if oe := s.entryAt(ke.owner); oe != nil && oe.rule == r {
			delete(s.kernel, ft)
		}
	}
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
				s.indexFix(e)
				s.customTouch(e, uint64(n-1))
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
	if r := s.tcam.Lookup(f, inPort); r != nil && r != s.defaultRule {
		return s.tcamHit(s.entryOf(r), r, size, now)
	}
	if s.software != nil {
		if r := s.software.Lookup(f, inPort); r != nil {
			return s.softHit(s.entryOf(r), r, size, now)
		}
	}
	return s.punt()
}

// classifyExact short-circuits the per-tier lookups for the dominant probing
// workload: every installed rule an exact IPv4 match, at most the priority-0
// default route wild. The switch-wide exact index then answers the whole
// classification with one open-addressing probe — a frame's key selects the
// only rule in either table that could match it — instead of two table
// lookups that each rehash the key. ok=false defers to the reference tier
// walk whenever the workload leaves the fast path's assumptions (other wild
// rules, key shared by several rules, ambiguity against the default route).
func (s *Switch) classifyExact(f *packet.Frame, inPort uint16, size int, now time.Time) (Result, bool) {
	softWild := 0
	if s.software != nil {
		softWild = s.software.WildLen()
	}
	wilds := s.tcam.WildLen() + softWild
	defaultOnly := false
	if wilds != 0 {
		// Tolerate exactly one wild resident when it is the default route:
		// the reference walk never forwards through it (the tcam branch
		// skips it and a frame matching nothing else punts untouched), so
		// only shadowing against equal-or-lower-priority exact rules —
		// guarded below — could distinguish the paths.
		if wilds != 1 || softWild != 0 || s.defaultRule == nil ||
			s.tcam.WildSingleton() != s.defaultRule {
			return Result{}, false
		}
		defaultOnly = true
	}
	k, ok := flowtable.FrameKey(f)
	if !ok {
		// Non-IPv4 frames cannot match exact-indexed rules.
		return s.punt(), true
	}
	h := s.exact.get(k)
	if h == 0 {
		return s.punt(), true
	}
	e := &s.entries[h]
	if e.nextKey != 0 {
		// Duplicate-add phantoms chain behind the resident's key; let the
		// reference path disambiguate.
		return Result{}, false
	}
	r := e.rule
	if defaultOnly && r.Priority <= s.defaultRule.Priority {
		return Result{}, false
	}
	if !r.Match.MatchesRest(f, inPort) {
		// The rule pins more than the addresses (port, protocol); no other
		// exact rule shares the key, so the frame misses every table.
		return s.punt(), true
	}
	if e.inTCAM {
		return s.tcamHit(e, r, size, now), true
	}
	if e.inSoft {
		return s.softHit(e, r, size, now), true
	}
	// Tracked but resident in no table: a real lookup would miss.
	return s.punt(), true
}

// tcamHit accounts a hardware-table hit: touch, then forward or punt by the
// rule's actions and latency tier.
func (s *Switch) tcamHit(e *entry, r *flowtable.Rule, size int, now time.Time) Result {
	s.touch(e, r, size, now)
	if isController(r) {
		s.stats.ControlMiss++
		s.tel.controlMiss.Add(1)
		return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
	}
	path, dist := s.tcamTier(r)
	if path == PathFast {
		s.stats.FastHits++
		s.tel.fastHits.Add(1)
	} else {
		s.stats.MidHits++
		s.tel.midHits.Add(1)
	}
	return Result{Path: path, RTT: dist.Sample(s.rng), OutPort: outPort(r), Rule: r}
}

// softHit accounts a software-table hit, including the promotion check the
// reference walk performs before classifying the frame's path.
func (s *Switch) softHit(e *entry, r *flowtable.Rule, size int, now time.Time) Result {
	s.touch(e, r, size, now)
	s.maybePromote(e)
	if isController(r) {
		s.stats.ControlMiss++
		s.tel.controlMiss.Add(1)
		return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
	}
	s.stats.SlowHits++
	s.tel.slowHits.Add(1)
	return Result{Path: PathSlow, RTT: s.profile.SlowPath.Sample(s.rng), OutPort: outPort(r), Rule: r}
}

// punt accounts a total miss.
func (s *Switch) punt() Result {
	s.stats.ControlMiss++
	s.tel.controlMiss.Add(1)
	return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng)}
}

// tcamTier maps a TCAM resident to its latency tier based on its physical
// slot: the first MidPathSlots entries run at FastPath speed, the rest at
// MidPath (Figure 5's two fast banks). With MidPathSlots == 0 the whole
// TCAM is fast.
func (s *Switch) tcamTier(r *flowtable.Rule) (PathKind, LatencyDist) {
	if s.profile.MidPathSlots <= 0 || s.profile.MidPath.Mean == 0 {
		return PathFast, s.profile.FastPath
	}
	for i, rr := range s.tcam.Rules() {
		if rr == r {
			if i < s.profile.MidPathSlots {
				return PathFast, s.profile.FastPath
			}
			return PathMid, s.profile.MidPath
		}
	}
	return PathFast, s.profile.FastPath
}

// maybePromote swaps a software entry into TCAM when the cache policy now
// prefers it over the worst resident — this is how probing "a flow that was
// not initially cached might cause some other flow to be evicted".
func (s *Switch) maybePromote(e *entry) {
	if s.profile.Kind != ManagePolicyCache || e.inTCAM {
		return
	}
	w := e.rule.Match.Width()
	if !s.tcamAdmits(w) {
		return
	}
	if s.tcam.Fits(w) {
		s.promote(e)
		return
	}
	victim := s.worstTCAMEntry()
	if victim != nil && s.better(e, victim) {
		s.promote(e)
	}
}

func (s *Switch) microflowPipeline(f *packet.Frame, inPort uint16, size int, now time.Time) Result {
	ft, ftOK := f.FiveTuple()
	if ftOK {
		if ke, hit := s.kernel[ft]; hit {
			ke.useSeq = s.nextEvent()
			s.kernel[ft] = ke
			owner := s.entryAt(ke.owner)
			r := owner.rule
			s.touch(owner, r, size, now)
			if isController(r) {
				s.stats.ControlMiss++
				s.tel.controlMiss.Add(1)
				return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
			}
			s.stats.FastHits++
			s.tel.fastHits.Add(1)
			return Result{Path: PathFast, RTT: s.profile.FastPath.Sample(s.rng), OutPort: outPort(r), Rule: r}
		}
	}
	if r := s.software.Lookup(f, inPort); r != nil {
		e := s.entryOf(r)
		s.touch(e, r, size, now)
		if isController(r) {
			s.stats.ControlMiss++
			s.tel.controlMiss.Add(1)
			return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng), Rule: r}
		}
		// Install the exact-match microflow entry so the flow's next packet
		// takes the kernel fast path (the 1-to-N user→kernel mapping).
		if ftOK {
			s.kernel[ft] = kernelEntry{owner: r.Ext, useSeq: s.nextEvent()}
			if e != nil {
				e.kernelKeys = append(e.kernelKeys, ft)
			}
			s.evictKernelIfNeeded()
		}
		s.stats.SlowHits++
		s.tel.slowHits.Add(1)
		return Result{Path: PathSlow, RTT: s.profile.SlowPath.Sample(s.rng), OutPort: outPort(r), Rule: r}
	}
	s.stats.ControlMiss++
	s.tel.controlMiss.Add(1)
	return Result{Path: PathControl, RTT: s.profile.ControlPath.Sample(s.rng)}
}

// evictKernelIfNeeded applies LRU eviction to the kernel microflow cache
// when a capacity is configured.
func (s *Switch) evictKernelIfNeeded() {
	cap := s.profile.KernelCapacity
	if cap <= 0 || len(s.kernel) <= cap {
		return
	}
	var victimKey packet.FiveTuple
	var victimSeq uint64
	found := false
	for k, ke := range s.kernel {
		if !found || ke.useSeq < victimSeq {
			found, victimSeq, victimKey = true, ke.useSeq, k
		}
	}
	if found {
		delete(s.kernel, victimKey)
		s.stats.Evictions++
		s.tel.evictions.Add(1)
	}
}

func (s *Switch) touch(e *entry, r *flowtable.Rule, size int, now time.Time) {
	r.Touch(size, now)
	if e != nil {
		e.useSeq = s.nextEvent()
		e.traffic++
		s.indexFix(e)
		s.customTouch(e, 1)
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

func outPort(r *flowtable.Rule) uint16 {
	for _, a := range r.Actions {
		if a.Type == flowtable.ActionOutput {
			return a.Port
		}
	}
	return openflow.PortNone
}

// InTCAM reports whether the rule identified by (match, priority) currently
// resides in the hardware table. Tests and experiments use it as ground
// truth for cache state.
func (s *Switch) InTCAM(m *flowtable.Match, priority uint16) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.locate(m, priority)
	if r == nil {
		return false
	}
	e := s.entryOf(r)
	return e != nil && e.inTCAM
}
