package switchsim

import (
	"slices"
	"unsafe"

	"tango/internal/flowtable"
)

// arena.go is the rule arena: every installed rule and its bookkeeping
// record live side by side in fixed-size slabs, both addressed by one int32
// handle instead of pointers. Handle 0 is reserved ("no entry"), so the zero
// value of flowtable.Rule.Ext means no record; handle h lives at position
// h-1 of the handle space, slot (h-1)%ruleSlabSize of slab (h-1)/ruleSlabSize.
// Freed handles go on a free list and are reused by later adds — across
// delete, timeout expiry, and Reset — so a long-running switch's footprint
// is bounded by its peak live rule count, not its cumulative churn.
//
// The payoff is cache locality on the two profiled hot paths:
//
//   - classifyExact resolves a frame's key to its rule through the rule
//     table's open-addressing index (flowtable/keyindex.go), and the rule's
//     Ext handle lands on the record beside it;
//   - the eviction/promotion heaps (evictindex.go) hold handles beside
//     their keys, so sifts write only integers — no GC pointer-write
//     barriers, which dominated allocation-phase samples during demote
//     churn.
//
// A slab is never copied or reallocated, only retired to a pool on Reset,
// so *flowtable.Rule and *entry pointers stay valid for as long as their
// handle is allocated. Everything that outlives the rule is a handle.

// ruleSlabSize is the number of rules, and of their records, a slab holds:
// as many as fit in 64 KiB. A slab is a large object, which Go's allocator
// rounds up to whole 8 KiB pages, so a slab short of a page boundary pays
// for slots it does not have. Handle arithmetic divides by this constant.
const ruleSlabSize = int((64 << 10) / unsafe.Sizeof(ruleSlot{}))

// minHandleSpan is the handle count per-handle state starts at: the power of
// two nearest a slab's.
const minHandleSpan = 256

// ruleSlot is one handle's storage: the rule and its record.
type ruleSlot struct {
	rule flowtable.Rule
	e    entry
}

// slab is the arena's allocation unit.
type slab [ruleSlabSize]ruleSlot

// slot returns handle h's storage. h must lie in 1..s.handles.
func (s *Switch) slot(h int32) *ruleSlot {
	i := uint32(h - 1)
	return &s.slabs[i/uint32(ruleSlabSize)][i%uint32(ruleSlabSize)]
}

// ent returns handle h's record without checking that it is live. Callers
// hold a handle some structure recorded for a live rule.
func (s *Switch) ent(h int32) *entry { return &s.slot(h).e }

// entryAt resolves a handle to its arena record. Handle 0 and out-of-range
// or freed handles resolve to nil.
func (s *Switch) entryAt(h int32) *entry {
	if h <= 0 || h > s.handles {
		return nil
	}
	if e := s.ent(h); e.self == h {
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

// allocRule hands out a zeroed rule and its fresh record, linked to each
// other under one handle: the most recently freed handle when one exists,
// the next unused one otherwise. Slabs drawn from the reset pool are
// reused in place.
func (s *Switch) allocRule() (*flowtable.Rule, *entry) {
	var h int32
	if n := len(s.freeHandles); n > 0 {
		h = s.freeHandles[n-1]
		s.freeHandles = s.freeHandles[:n-1]
	} else {
		if int(s.handles) == len(s.slabs)*ruleSlabSize {
			if n := len(s.slabPool); n > 0 {
				s.slabs = append(s.slabs, s.slabPool[n-1])
				s.slabPool = s.slabPool[:n-1]
			} else {
				s.slabs = append(s.slabs, new(slab))
			}
		}
		s.handles++
		h = s.handles
	}
	sl := s.slot(h)
	sl.rule = flowtable.Rule{Ext: h}
	sl.e = entry{rule: &sl.rule, self: h, timedIdx: noTimed}
	return &sl.rule, &sl.e
}

// freeRule returns e's handle, and the rule it records, to the free list.
// The record is zeroed so stale handles fail entryAt's identity check; the
// rule keeps its fields until the handle's next tenant, so a caller still
// holding it reads the rule as it was removed. Its kernel chain is empty:
// removeRule invalidates it first. Timed entries swap-remove themselves
// from the expiry list first, keeping the invariant that timedEnts holds
// only live handles.
func (s *Switch) freeRule(e *entry) {
	s.untimeEntry(e)
	h := e.self
	e.rule.Ext = 0
	*e = entry{}
	if len(s.freeHandles) == cap(s.freeHandles) {
		// The list never holds more than the handles handed out, so it
		// grows to them in one step: a table emptied rule by rule grows it
		// once.
		s.freeHandles = slices.Grow(s.freeHandles, int(s.handles)-len(s.freeHandles))
	}
	s.freeHandles = append(s.freeHandles, h)
}

// resetArena frees every handle and returns every slab, uncleared, to the
// reset pool (allocRule zeroes what it hands out), keeping all capacity — a
// long-running fleet that resets its switches between inference rounds
// reuses one arena instead of leaking one per reset. Handles restart at 1 and ascend, as a free list rebuilt in
// descending order would hand them out, keeping replays deterministic.
func (s *Switch) resetArena() {
	s.timedEnts = s.timedEnts[:0]
	s.freeHandles = s.freeHandles[:0]
	s.slabPool = append(s.slabPool, s.slabs...)
	clear(s.slabs)
	s.slabs = s.slabs[:0]
	s.handles = 0
}

// handleSpan returns the length per-handle state indexed by handle grows to
// so that it covers handle h: one more than a power-of-two handle count of
// at least minHandleSpan, doubled from n, the state's current length. State
// that follows the handle space thus reallocates O(log n) times, never per
// slab, and 4,096 handles fit in 4,097 slots.
func handleSpan(n int, h int32) int {
	c := max(n-1, minHandleSpan)
	for c < int(h) {
		c *= 2
	}
	return c + 1
}

// growForHandle returns per-handle state st extended to cover handle h.
func growForHandle[T any](st []T, h int32) []T {
	if int(h) < len(st) {
		return st
	}
	grown := make([]T, handleSpan(len(st), h))
	copy(grown, st)
	return grown
}
