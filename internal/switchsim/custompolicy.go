package switchsim

import "tango/internal/flowtable"

// custompolicy.go adds cache-management policies that fall outside the
// paper's LEX model: their keep/evict decision is not a lexicographic
// composite of per-flow attributes, so Tango's Algorithm 2 cannot express
// them and the inference engine must reject them with a typed error (or, for
// policies whose observable behaviour happens to coincide with a LEX
// composite, classify them as that composite). Two families are modelled:
//
//   - destination-based rule aggregation (arXiv 1909.03059): flows sharing a
//     destination /28 are scored as a group by the group's cumulative
//     traffic, so one elephant flow shields its whole aggregate;
//   - FDRC-style flow-driven caching (arXiv 1803.04270): per-flow activity
//     is counted in coarse epochs and a flow's score is its current plus
//     previous epoch count, so idle flows decay to zero in two epochs
//     regardless of lifetime totals.
//
// Both need per-switch mutable scoring state, which a LEX key — a pure
// function of one entry — cannot carry. A CustomPolicy therefore supplies a
// state constructor; the switch instantiates the state in initIndexes, keys
// its eviction and promotion heaps (evictindex.go) through the state, and
// routes every touch and removal through it. Between FDRC epoch rolls a
// touch only raises keys, so the heaps defer touches as under a
// keep-high LEX policy: the eviction heap re-reads its root on peek, the
// promotion heap lists the member whose key rose. Every other key change is
// applied when it happens. A touch here moves more than the touched
// entry's key, so each state keeps the heaps in a form where one listed
// member still covers it:
//
//   - dest-aggregate scores per group, so it indexes groups, not entries:
//     the eviction heap holds one representative per group with TCAM
//     members — its newest one, which is the member the policy would evict
//     first — and the promotion heap each group's oldest TCAM-eligible
//     software member. A touch raises one group's key, which the heaps see
//     through its representatives; a removal lowers it, and both
//     representatives are re-sifted at once. (Were every member in the
//     heaps, a touch would have to list every software member of its
//     group.)
//   - FDRC scores per entry, and between epoch rolls only the touched
//     entry's score and use time move, so every resident sits in the heaps
//     as under a LEX policy. When the event count crosses a window boundary
//     every score may drop at once; both heaps are then marked dirty and
//     rebuilt bottom-up on their next peek, O(n) at most once per window.
//     Heap layout is unobservable — only the root is — so victims match a
//     full scan's.

// customState is a custom policy's per-switch scoring state. The switch
// calls key under its lock wherever it needs an entry's place in the
// policy's order, and the hook methods on every attribute-changing event;
// the hooks reach the heaps and the arena through the switch they are
// handed.
type customState interface {
	// key returns e's cache key, larger means kept; it must not change the
	// state: a contender is keyed before it is admitted anywhere.
	key(e *entry) cacheKey
	// onTouch accounts n data-plane packets on e (called after e.traffic
	// and e.useSeq have been advanced) and tells s's heaps which keys
	// moved.
	onTouch(s *Switch, e *entry, n uint64)
	// onRemove forgets e (rule deleted or expired), which the switch has
	// already untracked.
	onRemove(s *Switch, e *entry)
}

// CustomPolicy is a cache-management policy outside the LEX model. Construct
// one with PolicyDestAggregate or PolicyFDRC and place it in
// Policy.Custom; the embedded state constructor keeps per-switch scoring
// private to each Switch instance.
type CustomPolicy struct {
	// Name identifies the policy in Policy.String output.
	Name string
	// newState builds fresh scoring state; called from initIndexes (so
	// Reset starts clean).
	newState func() customState
}

// growToArena returns per-handle state s extended to cover every handle of
// arena ar. It sizes to the arena's capacity, so per-handle state reallocates
// only when the arena itself did.
func growToArena[T any](s []T, ar []entry) []T {
	if len(s) >= len(ar) {
		return s
	}
	grown := make([]T, cap(ar))
	copy(grown, s)
	return grown
}

// PolicyDestAggregate returns a destination-based rule-aggregation policy:
// entries whose destination addresses share a /28 form a group, a group's
// score is its members' cumulative matched-packet count, and eviction removes
// a member of the lowest-scoring group, youngest member first (equal scores
// keep the older entry). Rules without an exact IPv4 destination share one
// residual group.
func PolicyDestAggregate() Policy {
	return Policy{Custom: &CustomPolicy{
		Name:     "dest-aggregate(/28)",
		newState: func() customState { return &destAggState{groups: make([]destGroup, 1)} },
	}}
}

// memberTier says which heap a group member counts towards.
type memberTier uint8

const (
	tierNone memberTier = iota // scored only: resident in no indexed table
	tierTCAM
	tierSoft // TCAM-eligible software resident
)

// destMember is one entry's place in its group, indexed by arena handle
// (handles, unlike *entry, survive arena growth).
type destMember struct {
	group      int32 // index into destAggState.groups; 0 = not joined
	prev, next int32 // older / newer member of the same group
	tier       memberTier
}

// destGroup is one destination /28. Its members are linked in join order.
// An entry that is ever tracked joins during its own add, so among tracked
// members join order is insertSeq order, and the newest TCAM member and the
// oldest software member are found by walking from a departing
// representative to its neighbours.
type destGroup struct {
	score      uint64 // Σ members' traffic
	key        uint32
	head, tail int32 // oldest / newest member
	tcamRep    int32 // newest TCAM member: the group's item in the eviction heap
	softRep    int32 // oldest tierSoft member: its item in the promotion heap
}

// destAggState scores entries by their destination /28 group's cumulative
// traffic and keeps one representative per group in each heap.
type destAggState struct {
	members    []destMember // by arena handle
	groups     []destGroup  // slot 0 is the reserved "no group"
	freeGroups []int32
	byKey      flowtable.KeyIndex[int32] // group key → groups index
}

// residualGroup collects rules whose match has no exact IPv4 destination.
const residualGroup = ^uint32(0)

func groupKey(e *entry) uint32 {
	if k, ok := flowtable.ExactKey(&e.rule.Match); ok {
		return uint32(k) >> 4 // low word is the destination; aggregate at /28
	}
	return residualGroup
}

// scoreOf reads e's group score. An entry that has not joined its group yet
// (a contender mid-add) is looked up by key, without creating anything.
func (st *destAggState) scoreOf(e *entry) uint64 {
	var g int32
	if int(e.self) < len(st.members) {
		g = st.members[e.self].group
	}
	if g == 0 {
		g = st.byKey.Get(uint64(groupKey(e)))
	}
	return st.groups[g].score // slot 0 scores 0
}

// key orders by group score, then older first.
func (st *destAggState) key(e *entry) cacheKey {
	return cacheKey{hi: st.scoreOf(e), lo: ^e.insertSeq}
}

// join resolves e's group, creating the group and linking e as its newest
// member on first use.
func (st *destAggState) join(ar []entry, e *entry) (*destMember, *destGroup) {
	st.members = growToArena(st.members, ar)
	m := &st.members[e.self]
	if m.group != 0 {
		return m, &st.groups[m.group]
	}
	key := groupKey(e)
	gi := st.byKey.Get(uint64(key))
	if gi == 0 {
		if n := len(st.freeGroups); n > 0 {
			gi = st.freeGroups[n-1]
			st.freeGroups = st.freeGroups[:n-1]
		} else {
			gi = int32(len(st.groups))
			st.groups = append(st.groups, destGroup{})
		}
		st.groups[gi] = destGroup{key: key}
		st.byKey.Put(uint64(key), gi)
	}
	g := &st.groups[gi]
	m.group, m.prev = gi, g.tail
	if g.tail != 0 {
		st.members[g.tail].next = e.self
	} else {
		g.head = e.self
	}
	g.tail = e.self
	return m, g
}

// setRep replaces a group's representative in s's heap h: *rep names the
// old one (0 = the group was absent from h), to the new one (0 = it leaves).
func setRep(s *Switch, h *handleHeap, rep *int32, to int32) {
	if *rep != 0 {
		h.removeEntry(&s.entries[*rep])
	}
	if *rep = to; to != 0 {
		h.push(s, &s.entries[to])
	}
}

// trackTCAM counts e towards the eviction heap after it entered the TCAM.
func (st *destAggState) trackTCAM(s *Switch, e *entry) {
	m, g := st.join(s.entries, e)
	m.tier = tierTCAM
	if g.tcamRep == 0 || e.insertSeq > s.entries[g.tcamRep].insertSeq {
		setRep(s, s.evictIdx, &g.tcamRep, e.self)
	}
}

// trackSoft counts e towards the promotion heap after it entered the
// software table.
func (st *destAggState) trackSoft(s *Switch, e *entry) {
	m, g := st.join(s.entries, e)
	m.tier = tierSoft
	if g.softRep == 0 || e.insertSeq < s.entries[g.softRep].insertSeq {
		setRep(s, s.promoteIdx, &g.softRep, e.self)
	}
}

// untrack takes e out of whichever tier counts it, reporting whether one
// did. A departing representative hands over to the nearest member of its
// tier: the next older one in the TCAM, the next newer one in software.
func (st *destAggState) untrack(s *Switch, e *entry) bool {
	if int(e.self) >= len(st.members) {
		return false
	}
	m := &st.members[e.self]
	if m.tier == tierNone {
		return false
	}
	g := &st.groups[m.group]
	tier := m.tier
	m.tier = tierNone
	switch {
	case tier == tierTCAM && g.tcamRep == e.self:
		h := m.prev
		for h != 0 && st.members[h].tier != tierTCAM {
			h = st.members[h].prev
		}
		setRep(s, s.evictIdx, &g.tcamRep, h)
	case tier == tierSoft && g.softRep == e.self:
		h := m.next
		for h != 0 && st.members[h].tier != tierSoft {
			h = st.members[h].next
		}
		setRep(s, s.promoteIdx, &g.softRep, h)
	}
	return true
}

func (st *destAggState) onTouch(s *Switch, e *entry, n uint64) {
	_, g := st.join(s.entries, e)
	g.score += n
	// The TCAM representative's key rose away from the eviction root.
	if g.softRep != 0 {
		s.promoteIdx.touched(g.softRep)
	}
}

func (st *destAggState) onRemove(s *Switch, e *entry) {
	if int(e.self) >= len(st.members) {
		return
	}
	m := &st.members[e.self]
	if m.group == 0 {
		return
	}
	gi := m.group
	g := &st.groups[gi]
	if m.prev != 0 {
		st.members[m.prev].next = m.next
	} else {
		g.head = m.next
	}
	if m.next != 0 {
		st.members[m.next].prev = m.prev
	} else {
		g.tail = m.prev
	}
	*m = destMember{}
	if g.head == 0 {
		st.byKey.Del(uint64(g.key))
		*g = destGroup{}
		st.freeGroups = append(st.freeGroups, gi)
		return
	}
	// The entry's own lifetime traffic leaves with it, and the group's
	// representatives fall back at once.
	g.score -= e.traffic
	if g.tcamRep != 0 {
		s.evictIdx.fix(s, &s.entries[g.tcamRep])
	}
	if g.softRep != 0 {
		s.promoteIdx.fix(s, &s.entries[g.softRep])
	}
}

// PolicyFDRC returns a flow-driven rule-caching policy: switch-wide
// data-plane events are divided into epochs of the given window size
// (packets per epoch; 0 selects 4096), each entry counts its packets in the
// current epoch, and its score is current + previous epoch counts. Flows
// idle for two epochs score zero however much they carried before, which is
// what distinguishes FDRC's sliding recency-weighted frequency from plain
// LFU's lifetime totals.
func PolicyFDRC(window uint64) Policy {
	if window == 0 {
		window = 4096
	}
	return Policy{Custom: &CustomPolicy{
		Name: "fdrc(window=" + itoa(window) + ")",
		newState: func() customState {
			return &fdrcState{window: window}
		},
	}}
}

// itoa formats a uint64 without importing strconv into the hot-path file.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// fdrcCell is one entry's epoch-local activity counters. The zero cell
// scores zero in every epoch, so it doubles as "never touched".
type fdrcCell struct {
	epoch     uint64 // epoch cur was accumulated in
	cur, prev uint64
}

// fdrcState scores entries by current-plus-previous-epoch packet counts.
type fdrcState struct {
	window uint64
	events uint64     // switch-wide data-plane packets seen
	epoch  uint64     // events / window, kept so comparisons do not divide
	cells  []fdrcCell // by arena handle
}

// scoreOf reads e's score at the current epoch without mutating the cell:
// rotation is applied as a view, so comparisons are side-effect free.
func (st *fdrcState) scoreOf(e *entry) uint64 {
	if int(e.self) >= len(st.cells) {
		return 0
	}
	switch c := &st.cells[e.self]; {
	case c.epoch == st.epoch:
		return c.cur + c.prev
	case c.epoch+1 == st.epoch:
		return c.cur
	default:
		return 0
	}
}

// key orders by score, then more recently used first. Use times are
// unique, so the insertion-order tie-break never decides.
func (st *fdrcState) key(e *entry) cacheKey {
	return cacheKey{hi: st.scoreOf(e), lo: e.useSeq}
}

func (st *fdrcState) onTouch(s *Switch, e *entry, n uint64) {
	st.events += n
	ep := st.events / st.window
	rolled := ep != st.epoch
	st.epoch = ep
	st.cells = growToArena(st.cells, s.entries)
	c := &st.cells[e.self]
	switch {
	case c.epoch == st.epoch:
	case c.epoch+1 == st.epoch:
		c.prev, c.cur, c.epoch = c.cur, 0, st.epoch
	default:
		c.prev, c.cur, c.epoch = 0, 0, st.epoch
	}
	c.cur += n
	if rolled {
		// Every entry's view of its cell moved with the epoch.
		s.evictIdx.markDirty()
		s.promoteIdx.markDirty()
		return
	}
	// e's key rose: away from the eviction root, toward the promotion root.
	s.promoteIdx.touched(e.self)
}

func (st *fdrcState) onRemove(_ *Switch, e *entry) {
	if int(e.self) < len(st.cells) {
		st.cells[e.self] = fdrcCell{}
	}
}

// customRemove forgets e in the active custom policy state. Callers hold
// s.mu.
func (s *Switch) customRemove(e *entry) {
	if s.customState != nil && e != nil {
		s.customState.onRemove(s, e)
	}
}
