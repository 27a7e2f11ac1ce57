package switchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	"tango/internal/simclock"
)

// better is the paper's LEX order written out directly, the reference the
// compiled cache keys are checked against: entry a is kept over entry b
// when it orders better under the first key they differ on; entries equal
// on every key fall back to insertion order (older wins), which keeps the
// order total as the paper's model requires.
func (p Policy) better(a, b *entry) bool {
	for _, k := range p.Keys {
		va, vb := attrValue(a, k.Attr), attrValue(b, k.Attr)
		if va == vb {
			continue
		}
		if k.HighIsBetter {
			return va > vb
		}
		return va < vb
	}
	return a.insertSeq < b.insertSeq
}

// better is dest-aggregate's reference order: higher group score kept,
// then the older entry.
func (st *destAggState) better(a, b *entry) bool {
	sa, sb := st.scoreOf(a), st.scoreOf(b)
	if sa != sb {
		return sa > sb
	}
	return a.insertSeq < b.insertSeq
}

// better is FDRC's reference order: higher score kept, then the more
// recently used entry, then the older one.
func (st *fdrcState) better(a, b *entry) bool {
	sa, sb := st.scoreOf(a), st.scoreOf(b)
	if sa != sb {
		return sa > sb
	}
	if a.useSeq != b.useSeq {
		return a.useSeq > b.useSeq
	}
	return a.insertSeq < b.insertSeq
}

// better compares through the switch's reference order: its custom state's
// when it has one, its LEX composite's otherwise.
func (s *Switch) better(a, b *entry) bool {
	switch st := s.customState.(type) {
	case *destAggState:
		return st.better(a, b)
	case *fdrcState:
		return st.better(a, b)
	}
	return s.profile.CachePolicy.better(a, b)
}

// worstTCAMEntry returns the next victim: the eviction index's root.
func (s *Switch) worstTCAMEntry() *entry {
	e, _ := s.evictIdx.peek(s)
	return e
}

// worstTCAMEntryNaive is the oracle for victim selection: scan the TCAM
// residents for the policy-worst under the reference order, which shares
// no code with the cache keys the heaps order by.
func (s *Switch) worstTCAMEntryNaive() *entry {
	var worst *entry
	for h := int32(1); h <= s.handles; h++ {
		if e := s.entryAt(h); e != nil && e.inTCAM && (worst == nil || s.better(worst, e)) {
			worst = e
		}
	}
	return worst
}

// bestSoftwareEntryNaive is the oracle scan for promotion.
func (s *Switch) bestSoftwareEntryNaive() *entry {
	var best *entry
	for h := int32(1); h <= s.handles; h++ {
		e := s.entryAt(h)
		if e == nil || !e.inSoft || !s.tcamAdmits(e.rule.Match.Width()) {
			continue
		}
		if best == nil || s.better(e, best) {
			best = e
		}
	}
	return best
}

// checkIndexes asserts that both heaps agree with the oracle scans — same
// victim, same promotion candidate — and that the index's membership is
// exactly the table residents the scans would consider. Called after every
// operation of the differential test, it is the property that makes the
// O(log n) index a pure optimization: the key order is total, so the heap
// root and the full-scan extreme are the same unique entry. Before the
// peeks repair anything, it checks the deferral invariants those roots
// rest on (checkDeferred).
func checkIndexes(t *testing.T, s *Switch) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.evictIdx != nil {
		checkDeferred(t, s, "eviction", s.evictIdx)
		checkDeferred(t, s, "promotion", s.promoteIdx)
		inHeaps := 0
		for _, p := range s.evictIdx.pos {
			if p != 0 {
				inHeaps++
			}
		}
		if n := s.evictIdx.len() + s.promoteIdx.len(); inHeaps != n {
			t.Fatalf("%d handles have a heap position, the heaps hold %d", inHeaps, n)
		}
	}
	if s.evictIdx == nil {
		// No cache policy orders this switch's tiers.
		checkArena(t, s)
		return
	}
	if got, want := s.worstTCAMEntry(), s.worstTCAMEntryNaive(); got != want {
		t.Fatalf("worstTCAMEntry: index picked %+v, naive scan picked %+v", got, want)
	}
	if got, want := s.bestSoftwareEntry(), s.bestSoftwareEntryNaive(); got != want {
		t.Fatalf("bestSoftwareEntry: index picked %+v, naive scan picked %+v", got, want)
	}

	// Index members: every heap item under an entry-scored policy; under
	// dest-aggregate the heaps hold one representative per group and the
	// members are whatever the group lists count towards each tier.
	inEvict, inPromote := map[int32]bool{}, map[int32]bool{}
	if s.groups != nil {
		checkGroups(t, s, inEvict, inPromote)
	} else {
		heapMembers(t, s, "eviction", s.evictIdx, inEvict)
		heapMembers(t, s, "promotion", s.promoteIdx, inPromote)
	}
	tcam, eligible := 0, 0
	for h := int32(1); h <= s.handles; h++ {
		switch e := s.entryAt(h); {
		case e == nil:
		case e.inTCAM:
			tcam++
			if !inEvict[h] {
				t.Fatalf("TCAM resident %v missing from eviction index", e.rule.Match)
			}
		case s.tcamAdmits(e.rule.Match.Width()):
			eligible++
			if !inPromote[h] {
				t.Fatalf("software resident %v missing from promotion index", e.rule.Match)
			}
		}
	}
	if len(inEvict) != tcam {
		t.Fatalf("eviction index tracks %d entries, TCAM holds %d", len(inEvict), tcam)
	}
	if len(inPromote) != eligible {
		t.Fatalf("promotion index tracks %d entries, software holds %d eligible", len(inPromote), eligible)
	}

	if st, ok := s.customState.(*fdrcState); ok {
		for _, h := range s.freeHandles {
			if int(h) < len(st.cells) && st.cells[h] != (fdrcCell{}) {
				t.Fatalf("free handle %d keeps FDRC cell %+v", h, st.cells[h])
			}
		}
	}
	checkArena(t, s)
}

// heapMembers collects a heap's items into set, checking that each is a
// live entry whose position names its slot.
func heapMembers(t *testing.T, s *Switch, name string, h *handleHeap, set map[int32]bool) {
	t.Helper()
	for _, it := range h.items {
		e := s.entryAt(it.h)
		if e == nil {
			t.Fatalf("%s index holds dead handle %d", name, it.h)
		}
		if !h.contains(it.h) {
			t.Fatalf("%s index position broken for %+v", name, e)
		}
		if set[it.h] {
			t.Fatalf("%s index holds handle %d twice", name, it.h)
		}
		set[it.h] = true
	}
}

// checkDeferred asserts the invariants that make a deferred heap's root
// exact. A dirty heap promises nothing but its membership. Otherwise the
// items are in heap order by stored key, and each stored key relates to its
// member's current key as the heap's mode allows: equal in a static heap,
// at or behind it (farther from the root) in a lazy one, and in a stale one
// equal unless the member is listed, at or ahead of it if so.
func checkDeferred(t *testing.T, s *Switch, name string, h *handleHeap) {
	t.Helper()
	if h.dirty {
		if len(h.stale) != 0 {
			t.Fatalf("dirty %s heap still lists %v", name, h.stale)
		}
		return
	}
	if h.mode != stale && len(h.stale) != 0 {
		t.Fatalf("%s heap in mode %d lists %v", name, h.mode, h.stale)
	}
	listed := map[int32]bool{}
	for _, x := range h.stale {
		listed[x] = true
	}
	for i, it := range h.items {
		if i > 0 && it.key.less(h.items[(i-1)/2].key) {
			t.Fatalf("%s heap out of order at slot %d", name, i)
		}
		cur := h.keyOf(s, s.ent(it.h))
		switch {
		case cur == it.key:
		case h.mode == lazy && it.key.less(cur):
		case h.mode == stale && listed[it.h] && cur.less(it.key):
		default:
			t.Fatalf("%s heap (mode %d) stores key %v for handle %d, whose key is %v (listed: %v)",
				name, h.mode, it.key, it.h, cur, listed[it.h])
		}
	}
}

// checkGroups asserts dest-aggregate's state invariants and collects the
// members it counts towards each tier: every group's list is consistent and
// its tracked members sit in insertSeq order, its representatives are the
// newest TCAM and the oldest software member and are exactly the heaps'
// items, its score is the sum of its live members' traffic, and no freed
// handle or group keeps state.
func checkGroups(t *testing.T, s *Switch, inTCAM, inSoft map[int32]bool) {
	t.Helper()
	st := s.groups
	evictReps, promoteReps := map[int32]bool{}, map[int32]bool{}
	heapMembers(t, s, "eviction", s.evictIdx, evictReps)
	heapMembers(t, s, "promotion", s.promoteIdx, promoteReps)

	traffic := map[uint32]uint64{} // Σ traffic per group key over every live entry
	for _, r := range s.rules.Rules() {
		e := s.entryOf(r)
		traffic[groupKey(e)] += e.traffic
	}

	free := map[int32]bool{}
	for _, gi := range st.freeGroups {
		free[gi] = true
		if st.groups[gi] != (destGroup{}) {
			t.Fatalf("free group %d keeps state %+v", gi, st.groups[gi])
		}
	}
	if st.groups[0] != (destGroup{}) {
		t.Fatalf("reserved group 0 was written: %+v", st.groups[0])
	}
	joined := 0
	for i := 1; i < len(st.groups); i++ {
		gi := int32(i)
		if free[gi] {
			continue
		}
		g := st.groups[gi]
		if got := st.byKey.Get(uint64(g.key)); got != gi {
			t.Fatalf("group %d (key %#x) resolves to %d", gi, g.key, got)
		}
		if g.score != traffic[g.key] {
			t.Fatalf("group %#x scores %d, its live members carried %d", g.key, g.score, traffic[g.key])
		}
		delete(traffic, g.key)
		var prev, newestTCAM, oldestSoft int32
		var lastSeq uint64
		for h := g.head; h != 0; h = st.members[h].next {
			m := st.members[h]
			e := s.entryAt(h)
			if e == nil || m.group != gi || m.prev != prev || groupKey(e) != g.key {
				t.Fatalf("group %#x: member %d broken (%+v, entry %+v)", g.key, h, m, e)
			}
			joined++
			if m.tier != tierNone {
				if e.insertSeq <= lastSeq {
					t.Fatalf("group %#x: tracked members out of insertSeq order at %d", g.key, h)
				}
				lastSeq = e.insertSeq
			}
			switch m.tier {
			case tierTCAM:
				inTCAM[h] = true
				newestTCAM = h
			case tierSoft:
				inSoft[h] = true
				if oldestSoft == 0 {
					oldestSoft = h
				}
			}
			prev = h
		}
		if g.head == 0 || g.tail != prev {
			t.Fatalf("group %#x: head %d, tail %d, list ends at %d", g.key, g.head, g.tail, prev)
		}
		if g.tcamRep != newestTCAM || (newestTCAM != 0) != evictReps[newestTCAM] {
			t.Fatalf("group %#x: TCAM representative %d, newest TCAM member %d (in heap: %v)",
				g.key, g.tcamRep, newestTCAM, evictReps[newestTCAM])
		}
		if g.softRep != oldestSoft || (oldestSoft != 0) != promoteReps[oldestSoft] {
			t.Fatalf("group %#x: software representative %d, oldest software member %d (in heap: %v)",
				g.key, g.softRep, oldestSoft, promoteReps[oldestSoft])
		}
		delete(evictReps, newestTCAM)
		delete(promoteReps, oldestSoft)
	}
	if len(evictReps) != 0 || len(promoteReps) != 0 {
		t.Fatalf("heaps hold non-representatives: eviction %v, promotion %v", evictReps, promoteReps)
	}
	for key, sum := range traffic {
		if sum != 0 {
			t.Fatalf("group %#x carried %d packets but has no score", key, sum)
		}
	}
	for h := 1; h < len(st.members); h++ {
		if st.members[h].group != 0 {
			joined--
		} else if st.members[h] != (destMember{}) {
			t.Fatalf("handle %d left its group but keeps %+v", h, st.members[h])
		}
	}
	if joined != 0 {
		t.Fatalf("%d joined handles are on no group's list", -joined)
	}
	for _, h := range s.freeHandles {
		if int(h) < len(st.members) && st.members[h] != (destMember{}) {
			t.Fatalf("free handle %d keeps group state %+v", h, st.members[h])
		}
	}
}

// checkArena asserts the flat-arena bookkeeping invariants: every installed
// rule resolves to a live arena record and vice versa (no leaks, no
// dangling handles), the timed-rule list holds exactly the live entries
// that carry a timeout, and every free-listed slot is dead — its zeroed
// self field makes stale handles resolve to nil. The table's own index
// invariants are flowtable's validate.
func checkArena(t *testing.T, s *Switch) {
	t.Helper()
	tracked := s.rules.Len()
	for _, r := range s.rules.Rules() {
		e := s.entryOf(r)
		if e == nil {
			t.Fatalf("installed rule %v (handle %d) resolves to no arena record", r.Match, r.Ext)
		}
		if e.rule != r {
			t.Fatalf("arena record %d points at the wrong rule", e.self)
		}
	}
	timed := 0
	for h := int32(1); h <= s.handles; h++ {
		e := s.entryAt(h)
		if e == nil {
			continue
		}
		if hasTimeout := e.rule.IdleTimeout > 0 || e.rule.HardTimeout > 0; hasTimeout != (e.timedIdx != noTimed) {
			t.Fatalf("entry %d: rule timeouts %d/%d but timed-list position %d", h, e.rule.IdleTimeout, e.rule.HardTimeout, e.timedIdx)
		}
		if e.timedIdx == noTimed {
			continue
		}
		timed++
		if int(e.timedIdx) >= len(s.timedEnts) || s.timedEnts[e.timedIdx] != h {
			t.Fatalf("entry %d names timed-list position %d, which does not hold it", h, e.timedIdx)
		}
	}
	if timed != len(s.timedEnts) {
		t.Fatalf("timed-rule list holds %d handles, %d live entries carry a timeout", len(s.timedEnts), timed)
	}
	if live := s.arenaLive(); live != tracked {
		t.Fatalf("arena holds %d live records, switch tracks %d rules", live, tracked)
	}
	checkTiers(t, s, tracked)
	checkKernel(t, s)
	onFree := map[int32]bool{}
	for _, h := range s.freeHandles {
		if onFree[h] {
			t.Fatalf("handle %d free-listed twice", h)
		}
		onFree[h] = true
		if h <= 0 || h > s.handles {
			t.Fatalf("free list holds out-of-range handle %d", h)
		}
		if self := s.ent(h).self; self != 0 {
			t.Fatalf("free slot %d still claims self=%d; stale handles would resolve", h, self)
		}
		if s.entryAt(h) != nil {
			t.Fatalf("freed handle %d still resolves", h)
		}
	}
}

// checkTiers asserts the one-table invariants: no entry is in both tiers or
// in neither; the TCAM budget holds exactly the units of the inTCAM
// entries; the tier counts are the flag counts; and every installed rule is
// in the switch's one table exactly once, and is what Find returns for it.
func checkTiers(t *testing.T, s *Switch, tracked int) {
	t.Helper()
	var want *flowtable.TCAM // the budget the inTCAM entries add up to
	if s.tcam != nil {
		want = flowtable.NewTCAM(s.profile.TCAM)
	}
	inTCAM, inSoft := 0, 0
	for h := int32(1); h <= s.handles; h++ {
		e := s.entryAt(h)
		switch {
		case e == nil:
		case e.inTCAM && e.inSoft:
			t.Fatalf("entry %d (%v) is in both tiers", h, e.rule.Match)
		case e.inTCAM:
			inTCAM++
			if want == nil || !want.Take(e.rule.Match.Width()) {
				t.Fatalf("TCAM resident %v overflows the TCAM budget", e.rule.Match)
			}
		case e.inSoft:
			inSoft++
		default:
			t.Fatalf("entry %d (%v) is in neither tier", h, e.rule.Match)
		}
	}
	tcam := 0
	if want != nil {
		if *want != *s.tcam {
			t.Fatalf("TCAM budget is %+v, its residents add up to %+v", *s.tcam, *want)
		}
		tcam = s.tcam.Len()
	}
	if tcam != inTCAM || s.softLen() != inSoft {
		t.Fatalf("tier counts %d TCAM + %d software, flags say %d + %d", tcam, s.softLen(), inTCAM, inSoft)
	}
	inTable := map[*flowtable.Rule]bool{}
	for _, r := range s.rules.Rules() {
		if inTable[r] {
			t.Fatalf("rule %v is in the table twice", r.Match)
		}
		inTable[r] = true
	}
	if len(inTable) != tracked {
		t.Fatalf("table holds %d rules, switch tracks %d", len(inTable), tracked)
	}
	for r := range inTable {
		if s.rules.Find(&r.Match, r.Priority) != r {
			t.Fatalf("installed rule %v is not the table's rule for its match and priority", r.Match)
		}
	}
}

// diffOpts shapes runDifferential's operation mix for the policy under test.
type diffOpts struct {
	// idRange > 0 draws flow IDs from [0, idRange) instead of handing out
	// fresh ones, so destination /28 groups (16 consecutive IDs) keep
	// several members in both tiers at once.
	idRange int
	// wild also installs L2 rules, which have no exact IPv4 destination.
	wild bool
	// maxBurst bounds SendPacketN burst sizes.
	maxBurst int
}

// runDifferential drives one switch through a randomized insert / touch /
// burst / delete / re-add sequence — plus the arena's adversarial ops:
// timeout expiry and Reset (both recycle handles, so later steps probe
// stale-handle detection), and install bursts past both table capacities
// (free-list exhaustion followed by arena growth mid-churn) — checking
// index-vs-scan agreement and the arena invariants after every step. Small
// capacities keep the cache saturated, so evictions, promotions, and
// refills fire constantly.
func runDifferential(t *testing.T, policy Policy, seed int64, o diffOpts) {
	p := TestSwitch(6, policy)
	p.SoftwareCapacity = 18
	clk := simclock.NewVirtual()
	s := New(p, WithSeed(seed), WithClock(clk))
	rng := rand.New(rand.NewSource(seed))

	var live []uint32
	nextID := uint32(0)
	newID := func() uint32 {
		if o.idRange > 0 {
			return uint32(rng.Intn(o.idRange))
		}
		nextID++
		return nextID - 1
	}
	priorities := []uint16{10, 20, 30, 40}
	install := func() {
		id, prio := newID(), priorities[rng.Intn(len(priorities))]
		var err error
		if o.wild && rng.Intn(5) == 0 {
			err = s.FlowMod(&openflow.FlowMod{
				Command: openflow.FlowAdd, Match: flowtable.L2ProbeMatch(id),
				Priority: prio, Actions: flowtable.Output(1),
			})
		} else {
			err = addFlowErr(s, id, prio)
		}
		if err == nil {
			live = append(live, id)
		}
	}

	for step := 0; step < 500; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // install a new flow
			install()
		case op < 7: // touch an existing flow with data traffic
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(o.maxBurst) // mix single packets and bursts
			if _, err := s.SendPacketN(raw, 1, n); err != nil {
				t.Fatal(err)
			}
		case op < 8: // duplicate add: overwrites in place, must not enter an index
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			_ = addFlowErr(s, id, priorities[rng.Intn(len(priorities))])
		case op < 10: // delete an existing flow (strict)
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			matches := []flowtable.Match{flowtable.ExactProbeMatch(id)}
			if o.wild {
				matches = append(matches, flowtable.L2ProbeMatch(id))
			}
			for _, m := range matches {
				for _, prio := range priorities {
					_ = s.FlowMod(&openflow.FlowMod{
						Command: openflow.FlowDeleteStrict, Match: m, Priority: prio,
					})
				}
			}
		case op < 11: // timed install, then sometimes expire: frees recycle handles
			id := newID()
			err := s.FlowMod(&openflow.FlowMod{
				Command:     openflow.FlowAdd,
				Match:       flowtable.ExactProbeMatch(id),
				Priority:    priorities[rng.Intn(len(priorities))],
				IdleTimeout: uint16(1 + rng.Intn(2)),
				HardTimeout: uint16(1 + rng.Intn(3)),
				Actions:     flowtable.Output(1),
			})
			if err == nil {
				live = append(live, id) // may die to expiry; later ops turn into no-ops
			}
			if rng.Intn(2) == 0 {
				clk.Sleep(time.Duration(1+rng.Intn(4)) * time.Second)
				s.ExpireNow()
			}
		default: // arena stress: Reset, or a burst past capacity forcing growth
			if rng.Intn(3) == 0 {
				s.Reset()
				live = live[:0]
			} else {
				for i := 0; i < 30; i++ {
					install()
				}
			}
		}
		checkIndexes(t, s)
	}
}

// TestEvictionIndexDifferential replays randomized operation sequences
// against every named policy, a set of random LEX composites and both custom
// policies, asserting after each operation that the incremental index and
// the naive full scan agree on the next victim and the next promotion
// candidate.
func TestEvictionIndexDifferential(t *testing.T) {
	lex := diffOpts{maxBurst: 4}
	// 96 flow IDs are six /28 groups over 24 table slots. FDRC's bursts run
	// past its small windows, so epochs roll between almost every op and
	// sometimes several within one.
	grouped := diffOpts{idRange: 96, maxBurst: 4}
	residual := diffOpts{idRange: 96, maxBurst: 4, wild: true}
	epochs := diffOpts{maxBurst: 12}
	named := []struct {
		name   string
		policy Policy
		opts   diffOpts
	}{
		{"fifo", PolicyFIFO, lex},
		{"lru", PolicyLRU, lex},
		{"lfu", PolicyLFU, lex},
		{"priority", PolicyPriority, lex},
		{"mru", Policy{Keys: []SortKey{{AttrUseTime, false}}}, lex},
		{"keeplow", keepLowTraffic, lex},
		{"destagg", PolicyDestAggregate(), grouped},
		{"destagg-residual", PolicyDestAggregate(), residual},
		{"destagg-sparse", PolicyDestAggregate(), lex},
		{"fdrc-3", PolicyFDRC(3), epochs},
		{"fdrc-8", PolicyFDRC(8), epochs},
		{"fdrc-4096", PolicyFDRC(4096), epochs},
	}
	for _, tc := range named {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seeds := int64(1)
			if tc.policy.Custom != nil {
				seeds = 4
			}
			for seed := int64(1); seed <= seeds; seed++ {
				runDifferential(t, tc.policy, seed, tc.opts)
			}
		})
	}

	// Random LEX composites: every subset/order/direction of the non-serial
	// attributes terminated by a serial key, like the conformance generator.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		policy := randomLexPolicy(rng)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("lex-%d-%s", i, policy), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, policy, seed, lex)
		})
	}
}

// randomLexPolicy draws a random LEX composite: a shuffled subset of the
// non-serial attributes with random directions, terminated by a serial key
// (insertion or use-time) so the order is total before the insertSeq
// tie-break even kicks in.
func randomLexPolicy(rng *rand.Rand) Policy {
	nonSerial := []Attribute{AttrTraffic, AttrPriority}
	var keys []SortKey
	for _, idx := range rng.Perm(len(nonSerial))[:rng.Intn(len(nonSerial)+1)] {
		keys = append(keys, SortKey{Attr: nonSerial[idx], HighIsBetter: rng.Intn(2) == 0})
	}
	serial := SortKey{Attr: AttrInsertion, HighIsBetter: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		serial = SortKey{Attr: AttrUseTime, HighIsBetter: true}
	}
	return Policy{Keys: append(keys, serial)}
}

// keepLowTraffic is a composite whose touches lower keys: its eviction heap
// lists touched members and its promotion heap re-reads its root, the
// mirror image of LRU's.
var keepLowTraffic = Policy{Keys: []SortKey{{AttrTraffic, false}, {AttrPriority, true}, {AttrUseTime, true}}}

// touchPolicies are the cache policies whose touches move keys.
var touchPolicies = []struct {
	name   string
	policy Policy
}{
	{"lru", PolicyLRU},
	{"lfu", PolicyLFU},
	{"fdrc", PolicyFDRC(4096)},
	{"destagg", PolicyDestAggregate()},
	{"keeplow", keepLowTraffic},
}

// fullSwitch fills an 8-slot TCAM and a 24-rule software tier, returning
// the installed flow IDs. With the software tier full a demotion has
// nowhere to go, so no touch promotes.
func fullSwitch(t *testing.T, policy Policy) (*Switch, []uint32) {
	t.Helper()
	p := TestSwitch(8, policy)
	p.SoftwareCapacity = 24
	s := New(p)
	var ids []uint32
	for i := uint32(0); i < 32; i++ {
		if err := addFlowErr(s, 5*i, uint16(10+10*(i%2))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, 5*i)
	}
	return s, ids
}

// sendTo sends an n-packet burst to flow id.
func sendTo(t *testing.T, s *Switch, id uint32, n int) {
	t.Helper()
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: id})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendPacketN(raw, 1, n); err != nil {
		t.Fatal(err)
	}
}

// heapItems copies both heaps' items.
func heapItems(s *Switch) [2][]heapItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return [2][]heapItem{slices.Clone(s.evictIdx.items), slices.Clone(s.promoteIdx.items)}
}

// residents returns the flows of ids resident in the TCAM (tcam) or in
// software, in ids' order.
func residents(s *Switch, ids []uint32, tcam bool) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []uint32
	for _, id := range ids {
		if e := s.entryOf(s.rules.ExactRules(flowKey(id))); e.inTCAM == tcam {
			in = append(in, id)
		}
	}
	return in
}

// flowKey is flow id's exact-match key.
func flowKey(id uint32) uint64 {
	m := flowtable.ExactProbeMatch(id)
	k, _ := flowtable.ExactKey(&m)
	return k
}

// flowOf returns the flow of ids that e's rule matches.
func flowOf(ids []uint32, e *entry) uint32 {
	k, _ := flowtable.ExactKey(&e.rule.Match)
	return ids[slices.IndexFunc(ids, func(id uint32) bool { return flowKey(id) == k })]
}

// TestTouchMovesNothing holds a data-plane touch to zero heap work under
// every policy whose touches move keys: a TCAM hit, and a software hit that
// does not promote, leave both heaps' items exactly as they were, and the
// next victim and refill still equal the scans'. A second case touches
// more than a quarter of the heap that lists touched members, which drops
// the list for a rebuild, and then frees a TCAM slot: the refill must be
// the scan's pick.
func TestTouchMovesNothing(t *testing.T) {
	for _, tc := range touchPolicies {
		t.Run(tc.name, func(t *testing.T) {
			s, ids := fullSwitch(t, tc.policy)
			inTCAM, inSoft := residents(s, ids, true), residents(s, ids, false)
			if s.groups != nil {
				// A touch raises the whole group's score, so a software hit
				// that asks for a victim re-reads a TCAM representative it
				// raised. Hit groups without one.
				s.mu.Lock()
				inSoft = slices.DeleteFunc(inSoft, func(id uint32) bool {
					g := s.groups.members[s.rules.ExactRules(flowKey(id)).Ext].group
					return s.groups.groups[g].tcamRep != 0
				})
				s.mu.Unlock()
			}
			for _, hit := range []struct {
				what string
				id   uint32
				n    int
			}{
				{"TCAM hit", inTCAM[1], 3},
				{"software hit", inSoft[1], 1},
				{"TCAM hit", inTCAM[2], 1},
				{"software hit", inSoft[2], 2},
			} {
				checkIndexes(t, s)
				before := heapItems(s)
				sendTo(t, s, hit.id, hit.n)
				if after := heapItems(s); !slices.Equal(before[0], after[0]) || !slices.Equal(before[1], after[1]) {
					t.Fatalf("%s on flow %d moved heap items", hit.what, hit.id)
				}
				if !slices.Equal(residents(s, ids, true), inTCAM) {
					t.Fatalf("%s on flow %d moved a rule between tiers", hit.what, hit.id)
				}
				checkIndexes(t, s)
			}

			s, ids = fullSwitch(t, tc.policy)
			inTCAM = residents(s, ids, true)
			var touch []uint32
			s.mu.Lock()
			h := s.staleIdx
			for _, it := range h.items[:h.len()/4+1] {
				touch = append(touch, flowOf(ids, s.ent(it.h)))
			}
			s.mu.Unlock()
			for _, id := range touch {
				sendTo(t, s, id, 1)
			}
			s.mu.Lock()
			dirty := h.dirty
			want := flowOf(ids, s.bestSoftwareEntryNaive())
			s.mu.Unlock()
			if !dirty {
				t.Fatalf("%d touches on a %d-member heap left it clean", len(touch), h.len())
			}
			// The freed rule was never touched, so removing it moves no
			// other key (a dest-aggregate group keeps its score).
			i := slices.IndexFunc(inTCAM, func(id uint32) bool { return !slices.Contains(touch, id) })
			if err := s.FlowMod(&openflow.FlowMod{
				Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(inTCAM[i]),
				Priority: uint16(10 + 10*(inTCAM[i]/5%2)),
			}); err != nil {
				t.Fatal(err)
			}
			if got := residents(s, []uint32{want}, true); len(got) != 1 {
				t.Fatalf("freed TCAM slot not refilled by the scan's pick, flow %d", want)
			}
			checkIndexes(t, s)
		})
	}
}
