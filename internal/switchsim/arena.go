package switchsim

import (
	"slices"

	"tango/internal/flowtable"
)

// arena.go is the flat entry arena: every installed rule's bookkeeping record
// lives in one contiguous []entry slice, addressed by int32 handles instead
// of pointers. Handle 0 is reserved ("no entry"), so the zero value of
// flowtable.Rule.Ext means no record. Freed slots go on a free list and are
// reused by later adds — across delete, timeout expiry, and Reset — so a
// long-running switch's arena footprint is bounded by its peak live rule
// count, not its cumulative churn.
//
// The payoff is cache locality on the two profiled hot paths:
//
//   - classifyExact resolves a frame's key to its rule through the rule
//     table's open-addressing index (flowtable/keyindex.go), and the rule's
//     Ext handle lands directly on the flat record;
//   - the eviction/promotion heaps (evictindex.go) hold handles beside
//     their keys, so sifts write only integers — no GC pointer-write
//     barriers, which dominated allocation-phase samples during demote
//     churn.
//
// Entry pointers (*entry) are views into the arena: they stay valid between
// allocArena calls (the only operation that can grow the slice) and must
// never be retained across one. Everything that outlives an operation is a
// handle.

// ruleSlabSize is the rule-slab allocation unit. Rules need stable addresses
// (flow tables hold *Rule), so they are slab-allocated — slabs are never
// reallocated, only retired to a pool on Reset.
const ruleSlabSize = 256

// entryAt resolves a handle to its arena record. Handle 0 and out-of-range
// or freed handles resolve to nil.
func (s *Switch) entryAt(h int32) *entry {
	if h <= 0 || int(h) >= len(s.entries) {
		return nil
	}
	if e := &s.entries[h]; e.self == h {
		return e
	}
	// Freed slots zero their self field, so a stale handle — one recorded
	// before the slot was returned to the free list — resolves to nil
	// instead of someone else's bookkeeping.
	return nil
}

// entryOf resolves an installed rule to its arena record via the rule's Ext
// handle — the hot-path replacement for a map lookup or interface assertion.
func (s *Switch) entryOf(r *flowtable.Rule) *entry {
	return s.entryAt(r.Ext)
}

// allocEntry hands out a fresh arena record, reusing a free-listed slot when
// one exists and growing the arena otherwise. The returned pointer is valid
// until the next allocEntry call.
func (s *Switch) allocEntry() (int32, *entry) {
	if n := len(s.freeEnts); n > 0 {
		h := s.freeEnts[n-1]
		s.freeEnts = s.freeEnts[:n-1]
		e := &s.entries[h]
		*e = entry{self: h, timedIdx: noTimed}
		return h, e
	}
	if s.entries == nil {
		// Slot 0 is the reserved nil handle.
		s.entries = make([]entry, 1, 1+ruleSlabSize)
	}
	h := int32(len(s.entries))
	s.entries = append(s.entries, entry{self: h, timedIdx: noTimed})
	return h, &s.entries[h]
}

// freeEntry returns e's slot to the free list. The slot's self field is
// zeroed so stale handles fail entryAt's identity check. Its kernel chain is
// empty: removeRule invalidates it first. Timed entries
// swap-remove themselves from the expiry list first, keeping the invariant
// that timedEnts holds only live handles.
func (s *Switch) freeEntry(e *entry) {
	s.untimeEntry(e)
	h := e.self
	*e = entry{}
	if len(s.freeEnts) == cap(s.freeEnts) {
		// The list never holds more than the arena's slots, so it grows to
		// them in one step: a table emptied rule by rule grows it once.
		s.freeEnts = slices.Grow(s.freeEnts, len(s.entries)-len(s.freeEnts))
	}
	s.freeEnts = append(s.freeEnts, h)
}

// newRule hands out a zeroed rule: from the rule free list when delete or
// expiry recycled one, from the current slab otherwise. Slabs drawn from the
// reset pool are reused in place.
func (s *Switch) newRule() *flowtable.Rule {
	if n := len(s.freeRules); n > 0 {
		r := s.freeRules[n-1]
		s.freeRules = s.freeRules[:n-1]
		*r = flowtable.Rule{}
		return r
	}
	if s.ruleUsed == len(s.ruleChunk) {
		if n := len(s.slabPool); n > 0 {
			s.ruleChunk = s.slabPool[n-1]
			s.slabPool = s.slabPool[:n-1]
		} else {
			s.ruleChunk = make([]flowtable.Rule, ruleSlabSize)
		}
		s.liveSlabs = append(s.liveSlabs, s.ruleChunk)
		s.ruleUsed = 0
	}
	r := &s.ruleChunk[s.ruleUsed]
	s.ruleUsed++
	*r = flowtable.Rule{}
	return r
}

// freeRule recycles a removed rule's slab slot for the next add. Like the
// entry free list, the rule free list grows to every rule the live slabs
// hold in one step.
func (s *Switch) freeRule(r *flowtable.Rule) {
	if len(s.freeRules) == cap(s.freeRules) {
		s.freeRules = slices.Grow(s.freeRules, len(s.liveSlabs)*ruleSlabSize-len(s.freeRules))
	}
	s.freeRules = append(s.freeRules, r)
}

// resetArena returns every arena slot to the free list and every rule slab
// to the reset pool, keeping all capacity — a long-running fleet that resets
// its switches between inference rounds reuses one arena instead of leaking
// one per reset. Free-list order is rebuilt descending so post-reset adds
// reuse handles in ascending order, keeping replays deterministic.
func (s *Switch) resetArena() {
	s.timedEnts = s.timedEnts[:0]
	s.freeEnts = s.freeEnts[:0]
	for i := len(s.entries) - 1; i >= 1; i-- {
		s.entries[i] = entry{}
		s.freeEnts = append(s.freeEnts, int32(i))
	}
	s.freeRules = s.freeRules[:0]
	s.slabPool = append(s.slabPool, s.liveSlabs...)
	s.liveSlabs = s.liveSlabs[:0]
	s.ruleChunk = nil
	s.ruleUsed = 0
}
