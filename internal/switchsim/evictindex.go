package switchsim

// evictindex.go keeps the cache policy's eviction order incrementally
// instead of recomputing it. Policy-cache switches maintain two binary heaps
// over their entries, both ordered by Policy.Better (a total order — ties
// fall back to insertion sequence, so every heap root is unique and equals
// the corresponding full-scan result):
//
//   - the eviction index over TCAM residents, policy-worst entry at the
//     root (the next victim);
//   - the promotion index over TCAM-eligible software residents,
//     policy-best entry at the root (the next entry to refill a freed slot).
//
// Each entry carries a heap-position back-pointer, so membership moves
// (insert, evict, promote, delete) and attribute updates under touch-heavy
// policies (use time, traffic) cost O(log n) instead of the O(n) slice
// rebuild and rescan a full scan paid on every insert into a full cache.
// The heaps are the only way a victim or a refill is chosen; the full scans
// live on in evictindex_test.go as the differential test's oracle.
//
// Custom policies (custompolicy.go) order the same two heaps by their own
// stateful comparator and repair them themselves: FDRC keeps every resident
// in them like a LEX policy, dest-aggregate one representative per group.
//
// The heaps hold int32 arena handles, not pointers: a sift writes only
// integers into items and heapIdx fields, so the GC write barrier never
// runs on this path (it fires on pointer stores into heap objects — the
// dominant cost of the old []*entry sifts during demote churn).

// handleHeap is a binary heap of arena handles with back-pointers in the
// arena records. first reports whether a must sit closer to the root than b;
// with a total order the root is the unique extreme element. Every method
// takes the arena slice explicitly, because the slice header changes when
// the arena grows.
type handleHeap struct {
	items []int32
	first func(a, b *entry) bool
}

func newHandleHeap(first func(a, b *entry) bool) *handleHeap {
	return &handleHeap{first: first}
}

func (h *handleHeap) len() int { return len(h.items) }

// peek returns the root entry, nil when empty.
func (h *handleHeap) peek(ar []entry) *entry {
	if len(h.items) == 0 {
		return nil
	}
	return &ar[h.items[0]]
}

// contains reports whether e currently sits in this heap. Back-pointers are
// shared across heaps, so the slot's occupant is checked, not just the index.
func (h *handleHeap) contains(e *entry) bool {
	i := e.heapIdx
	return i >= 0 && int(i) < len(h.items) && h.items[i] == e.self
}

// push adds e to the heap. e must not already be in any heap.
func (h *handleHeap) push(ar []entry, e *entry) {
	e.heapIdx = int32(len(h.items))
	h.items = append(h.items, e.self)
	h.up(ar, int(e.heapIdx))
}

// removeEntry takes e out of the heap, reporting whether it was a member.
func (h *handleHeap) removeEntry(ar []entry, e *entry) bool {
	if !h.contains(e) {
		return false
	}
	i := int(e.heapIdx)
	last := len(h.items) - 1
	if i != last {
		h.swap(ar, i, last)
	}
	h.items = h.items[:last]
	e.heapIdx = noHeap
	if i != last {
		if !h.down(ar, i) {
			h.up(ar, i)
		}
	}
	return true
}

// fix restores heap order around e after its attributes changed, reporting
// whether e was a member.
func (h *handleHeap) fix(ar []entry, e *entry) bool {
	if !h.contains(e) {
		return false
	}
	if !h.down(ar, int(e.heapIdx)) {
		h.up(ar, int(e.heapIdx))
	}
	return true
}

func (h *handleHeap) swap(ar []entry, i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	ar[h.items[i]].heapIdx = int32(i)
	ar[h.items[j]].heapIdx = int32(j)
}

// up sifts items[i] toward the root.
func (h *handleHeap) up(ar []entry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.first(&ar[h.items[i]], &ar[h.items[parent]]) {
			return
		}
		h.swap(ar, i, parent)
		i = parent
	}
}

// down sifts items[i] toward the leaves, reporting whether it moved.
func (h *handleHeap) down(ar []entry, i int) bool {
	moved := false
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		next := left
		if right := left + 1; right < n && h.first(&ar[h.items[right]], &ar[h.items[left]]) {
			next = right
		}
		if !h.first(&ar[h.items[next]], &ar[h.items[i]]) {
			return moved
		}
		h.swap(ar, i, next)
		i = next
		moved = true
	}
}

// heapify restores heap order over all items at once (Floyd's bottom-up
// build, O(n)) after many keys changed together.
func (h *handleHeap) heapify(ar []entry) {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(ar, i)
	}
}

// initIndexes builds (or rebuilds, on Reset) the eviction and promotion
// indexes. Only policy-cache hierarchies pay for index maintenance; the
// other kinds never consult a cache policy.
func (s *Switch) initIndexes() {
	s.customState, s.groups = nil, nil
	s.dynPolicy = false
	policy := s.profile.CachePolicy
	if policy.Custom != nil && s.profile.Kind == ManagePolicyCache {
		// Custom policies (custompolicy.go) compare through fresh per-switch
		// scoring state, so Reset starts clean.
		s.customState = policy.Custom.newState()
		s.better = s.customState.better
	} else {
		// The compiled comparator serves every policy consumer, indexed or not.
		s.better = policy.compile()
	}
	if s.profile.Kind != ManagePolicyCache {
		return
	}
	better := s.better
	s.evictIdx = newHandleHeap(func(a, b *entry) bool { return better(b, a) })
	s.promoteIdx = newHandleHeap(better)
	if s.customState != nil {
		// The state repairs both heaps itself on every touch (customTouch),
		// so the LEX fixup stays off. A grouping state also decides which
		// entries sit in the heaps at all.
		s.groups, _ = s.customState.(*destAggState)
		return
	}
	for _, k := range policy.Keys {
		if k.Attr == AttrUseTime || k.Attr == AttrTraffic {
			s.dynPolicy = true
		}
	}
}

// trackTCAM registers e in the eviction index after it entered the TCAM.
func (s *Switch) trackTCAM(e *entry) {
	if s.evictIdx == nil {
		return
	}
	if s.groups != nil {
		s.groups.trackTCAM(s, e)
	} else {
		s.evictIdx.push(s.entries, e)
	}
	s.tel.idxPushes.Add(1)
}

// trackSoft registers e in the promotion index after it entered the
// software table; ineligible widths never become promotion candidates and
// stay out of the index: they can never refill a TCAM slot.
func (s *Switch) trackSoft(e *entry) {
	if s.promoteIdx == nil || !s.tcamAdmits(e.rule.Match.Width()) {
		return
	}
	if s.groups != nil {
		s.groups.trackSoft(s, e)
	} else {
		s.promoteIdx.push(s.entries, e)
	}
	s.tel.idxPushes.Add(1)
}

// untrack removes e from whichever index holds it.
func (s *Switch) untrack(e *entry) {
	if s.groups != nil {
		// A group's non-representative members sit in no heap, so heapIdx
		// says nothing about their membership.
		if e != nil && s.groups.untrack(s, e) {
			s.tel.idxRemoves.Add(1)
		}
		return
	}
	if s.evictIdx == nil || e == nil || e.heapIdx < 0 {
		return
	}
	if s.evictIdx.removeEntry(s.entries, e) || s.promoteIdx.removeEntry(s.entries, e) {
		s.tel.idxRemoves.Add(1)
	}
}

// indexFix restores index order around e after a policy attribute changed.
// Static policies (insertion/priority keys only) skip it: their comparisons
// read values fixed at insert time.
func (s *Switch) indexFix(e *entry) {
	if !s.dynPolicy || e == nil || e.heapIdx < 0 {
		return
	}
	if s.evictIdx.fix(s.entries, e) || s.promoteIdx.fix(s.entries, e) {
		s.tel.idxFixups.Add(1)
	}
}
