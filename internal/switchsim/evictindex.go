package switchsim

import "tango/internal/telemetry"

// evictindex.go keeps the cache policy's eviction order incrementally
// instead of recomputing it. Policy-cache switches maintain two binary heaps
// over their entries, both ordered by the policy's cache key (policy.go; a
// total order, so every heap root is unique and equals the corresponding
// full-scan result):
//
//   - the eviction index over TCAM residents, lowest key at the root (the
//     next victim);
//   - the promotion index over TCAM-eligible software residents, highest
//     key at the root (the next entry to refill a freed slot).
//
// Each item carries its member's key inline, as read at the member's last
// repair, so a sift compares integers and writes only the items and the
// switch's dense position array (one int32 per handle, shared by both
// heaps): no arena record is read or written, and the GC write barrier
// never runs on this path. Membership moves (insert, evict, promote,
// delete) cost O(log n). The heaps are the only way a victim or a refill is
// chosen; the full scans live on in evictindex_test.go as the differential
// test's oracle.
//
// A data-plane touch repairs nothing. Under every cache policy a touch
// moves keys in one fixed direction (lexKey.touch; up for both custom
// policies between FDRC epoch rolls), so each heap defers in one of two
// ways and repairs only when its root is asked for:
//
//   - lazy: keys move away from the root. A touch does nothing; every
//     stored key stays at or behind its member's current key, so a root
//     whose stored key is current is the true extreme, and peek re-reads
//     the root and sifts it down until that holds.
//   - stale: keys move toward the root. A touch lists the member; peek
//     sifts each listed member up: moves toward the root compose on a heap
//     ordered by stored keys. A list longer than a quarter of the heap is
//     dropped and the heap marked dirty: pushes and removals then skip
//     sifting and the next peek rebuilds the heap (Floyd), so a touch costs
//     O(1) amortized and no peek costs more than a rebuild.
//
// Every other key change — a dest-aggregate group losing a member, an FDRC
// epoch roll — is applied when it happens, by fix or by markDirty.
//
// Custom policies (custompolicy.go) key the same two heaps through their
// own state: FDRC keeps every resident in them like a LEX policy,
// dest-aggregate one representative per group.

// heapMode is how a heap's stored keys may lag its members' current keys.
type heapMode uint8

const (
	static heapMode = iota // never: touches move no key
	lazy                   // toward the leaves: the root is re-read on peek
	stale                  // toward the root: touched members are listed
)

// heapItem is one heap slot.
type heapItem struct {
	key cacheKey // the member's key at its last repair, complemented in the promotion heap
	h   int32
}

// handleHeap is a binary min-heap of arena handles by stored key. The
// promotion heap stores complemented keys (flip), so it too keeps its
// extreme, the highest key, at the root.
type handleHeap struct {
	items []heapItem
	// pos is the switch's position array, shared by both heaps: slot+1 of
	// each handle in whichever heap holds it, 0 when in neither.
	pos []int32
	// stale lists members whose keys moved toward the root since the last
	// peek (stale mode only; it may repeat a handle or name a departed one).
	stale   []int32
	repairs *telemetry.Counter
	flip    uint64
	mode    heapMode
	dirty   bool
}

func (h *handleHeap) len() int { return len(h.items) }

// keyOf reads e's current key as this heap stores it.
func (h *handleHeap) keyOf(s *Switch, e *entry) cacheKey {
	k := s.key(e)
	return cacheKey{hi: k.hi ^ h.flip, lo: k.lo ^ h.flip}
}

// contains reports whether handle x sits in this heap. Positions are shared
// across heaps, so the slot's occupant is checked, not just the position.
func (h *handleHeap) contains(x int32) bool {
	p := h.pos[x]
	return p > 0 && int(p) <= len(h.items) && h.items[p-1].h == x
}

// set stores it at slot i.
func (h *handleHeap) set(i int, it heapItem) {
	h.items[i] = it
	h.pos[it.h] = int32(i + 1)
}

// peek returns the root entry and its key after repairing whatever the
// heap deferred; nil when empty.
func (h *handleHeap) peek(s *Switch) (*entry, cacheKey) {
	ar := s.entries
	switch {
	case h.dirty:
		h.rebuild(s)
	case len(h.stale) > 0:
		for _, x := range h.stale {
			if !h.contains(x) {
				continue
			}
			i := int(h.pos[x] - 1)
			if k := h.keyOf(s, &ar[x]); k != h.items[i].key {
				h.items[i].key = k
				h.up(i)
				h.repairs.Add(1)
			}
		}
		h.stale = h.stale[:0]
	}
	if len(h.items) == 0 {
		return nil, cacheKey{}
	}
	if h.mode == lazy {
		for {
			root := &ar[h.items[0].h]
			k := h.keyOf(s, root)
			if k == h.items[0].key {
				break
			}
			h.items[0].key = k
			h.down(0)
			h.repairs.Add(1)
		}
	}
	k := h.items[0].key
	return &ar[h.items[0].h], cacheKey{hi: k.hi ^ h.flip, lo: k.lo ^ h.flip}
}

// touched notes that x's key moved in the policy's touch direction.
func (h *handleHeap) touched(x int32) {
	if h.mode != stale || h.dirty || !h.contains(x) {
		return
	}
	h.stale = append(h.stale, x)
	if len(h.stale) > len(h.items)/4 {
		h.markDirty()
	}
}

// markDirty defers every repair to the next peek's rebuild.
func (h *handleHeap) markDirty() {
	h.stale = h.stale[:0]
	h.dirty = true
}

// push adds e to the heap. e must not already be in either heap.
func (h *handleHeap) push(s *Switch, e *entry) {
	h.items = append(h.items, heapItem{})
	i := len(h.items) - 1
	h.set(i, heapItem{key: h.keyOf(s, e), h: e.self})
	if !h.dirty {
		h.up(i)
	}
}

// removeEntry takes e out of the heap, reporting whether it was a member.
func (h *handleHeap) removeEntry(e *entry) bool {
	if !h.contains(e.self) {
		return false
	}
	i := int(h.pos[e.self] - 1)
	h.pos[e.self] = 0
	last := len(h.items) - 1
	moved := h.items[last]
	h.items = h.items[:last]
	if i == last {
		return true
	}
	h.set(i, moved)
	if !h.dirty && !h.down(i) {
		h.up(i)
	}
	return true
}

// fix re-reads e's key and restores heap order around it, after a change
// the heap's mode does not defer.
func (h *handleHeap) fix(s *Switch, e *entry) {
	if h.dirty || !h.contains(e.self) {
		return
	}
	i := int(h.pos[e.self] - 1)
	if k := h.keyOf(s, e); k != h.items[i].key {
		h.items[i].key = k
		if !h.down(i) {
			h.up(i)
		}
		h.repairs.Add(1)
	}
}

// rebuild re-reads every member's key and restores heap order bottom-up
// (Floyd, O(n)).
func (h *handleHeap) rebuild(s *Switch) {
	for i := range h.items {
		h.items[i].key = h.keyOf(s, &s.entries[h.items[i].h])
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.stale = h.stale[:0]
	h.dirty = false
	h.repairs.Add(1)
}

// up sifts items[i] toward the root.
func (h *handleHeap) up(i int) {
	it := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !it.key.less(h.items[parent].key) {
			break
		}
		h.set(i, h.items[parent])
		i = parent
	}
	h.set(i, it)
}

// down sifts items[i] toward the leaves, reporting whether it moved.
func (h *handleHeap) down(i int) bool {
	it := h.items[i]
	start, n := i, len(h.items)
	for {
		next := 2*i + 1
		if next >= n {
			break
		}
		if right := next + 1; right < n && h.items[right].key.less(h.items[next].key) {
			next = right
		}
		if !h.items[next].key.less(it.key) {
			break
		}
		h.set(i, h.items[next])
		i = next
	}
	h.set(i, it)
	return i != start
}

// initIndexes builds (or empties, on Reset) the eviction and promotion
// indexes. Only policy-cache hierarchies pay for index maintenance; the
// other kinds never consult a cache policy.
func (s *Switch) initIndexes() {
	s.customState, s.groups, s.staleIdx = nil, nil, nil
	policy := s.profile.CachePolicy
	touch := 0
	if policy.Custom != nil && s.profile.Kind == ManagePolicyCache {
		// Custom policies (custompolicy.go) key through fresh per-switch
		// scoring state, so Reset starts clean. Between FDRC epoch rolls a
		// touch only raises keys.
		s.customState = policy.Custom.newState()
		touch = 1
		// A grouping state also decides which entries sit in the heaps.
		s.groups, _ = s.customState.(*destAggState)
	} else {
		s.lex = policy.lexKey()
		touch = s.lex.touch
	}
	if s.profile.Kind != ManagePolicyCache {
		return
	}
	if s.evictIdx == nil {
		s.evictIdx, s.promoteIdx = &handleHeap{}, &handleHeap{}
	}
	clear(s.evictIdx.pos)
	switch touch {
	case 1:
		s.evictIdx.reset(s, lazy, 0)
		s.promoteIdx.reset(s, stale, ^uint64(0))
		s.staleIdx = s.promoteIdx
	case -1:
		s.evictIdx.reset(s, stale, 0)
		s.promoteIdx.reset(s, lazy, ^uint64(0))
		s.staleIdx = s.evictIdx
	default:
		s.evictIdx.reset(s, static, 0)
		s.promoteIdx.reset(s, static, ^uint64(0))
	}
}

// reset empties h for s's policy, keeping its capacity and the shared
// position array.
func (h *handleHeap) reset(s *Switch, mode heapMode, flip uint64) {
	*h = handleHeap{
		items: h.items[:0], pos: h.pos, stale: h.stale[:0],
		repairs: s.tel.idxFixups, flip: flip, mode: mode,
	}
}

// growIndexes extends the position array to cover every arena handle. Like
// growToArena it sizes to the arena's capacity, so it reallocates only when
// the arena did. The one heap that lists stale members gets its list's
// largest length — a quarter of the heap, plus the entry that crosses it —
// from the same allocation, so a touch never allocates.
func (s *Switch) growIndexes() {
	pos := s.evictIdx.pos
	if len(pos) >= len(s.entries) {
		return
	}
	n := cap(s.entries)
	buf := make([]int32, n+n/4+1)
	copy(buf, pos)
	pos = buf[:n:n]
	s.evictIdx.pos, s.promoteIdx.pos = pos, pos
	if s.staleIdx != nil {
		s.staleIdx.stale = append(buf[n:n], s.staleIdx.stale...)
	}
}

// trackTCAM registers e in the eviction index after it entered the TCAM.
func (s *Switch) trackTCAM(e *entry) {
	if s.evictIdx == nil {
		return
	}
	s.growIndexes()
	if s.groups != nil {
		s.groups.trackTCAM(s, e)
	} else {
		s.evictIdx.push(s, e)
	}
	s.tel.idxPushes.Add(1)
}

// trackSoft registers e in the promotion index after it entered the
// software table; ineligible widths never become promotion candidates and
// stay out of the index: they can never refill a TCAM slot.
func (s *Switch) trackSoft(e *entry) {
	if s.promoteIdx == nil {
		return
	}
	s.growIndexes() // e may leave through untrack even when it was never a candidate
	if !s.tcamAdmits(e.rule.Match.Width()) {
		return
	}
	if s.groups != nil {
		s.groups.trackSoft(s, e)
	} else {
		s.promoteIdx.push(s, e)
	}
	s.tel.idxPushes.Add(1)
}

// untrack removes e from whichever index holds it.
func (s *Switch) untrack(e *entry) {
	if s.evictIdx == nil || e == nil {
		return
	}
	if s.groups != nil {
		// A group's non-representative members sit in no heap, so the
		// position array says nothing about their membership.
		if s.groups.untrack(s, e) {
			s.tel.idxRemoves.Add(1)
		}
		return
	}
	if s.evictIdx.removeEntry(e) || s.promoteIdx.removeEntry(e) {
		s.tel.idxRemoves.Add(1)
	}
}

// key returns e's cache key under the switch's policy.
func (s *Switch) key(e *entry) cacheKey {
	if s.customState != nil {
		return s.customState.key(e)
	}
	return s.lex.of(e)
}

// noteTouch tells the indexes that a data-plane touch advanced e's use time
// and traffic by n packets. Callers hold s.mu.
func (s *Switch) noteTouch(e *entry, n uint64) {
	switch {
	case s.customState != nil:
		s.customState.onTouch(s, e, n)
	case s.staleIdx != nil:
		s.staleIdx.touched(e.self)
	}
}
