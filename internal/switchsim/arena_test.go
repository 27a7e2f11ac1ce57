package switchsim

import (
	"math/rand"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/simclock"
)

// arenaLive counts live (allocated) arena records, to assert free-list
// reuse.
func (s *Switch) arenaLive() int {
	n := len(s.entries)
	if n > 0 {
		n--
	}
	return n - len(s.freeEnts)
}

// trackedRule returns the bookkeeping rule for flow id, or nil.
func trackedRule(s *Switch, id uint32) *flowtable.Rule {
	want := flowtable.ExactProbeMatch(id)
	var found *flowtable.Rule
	s.forEachTracked(func(r *flowtable.Rule) {
		if r.Match == want {
			found = r
		}
	})
	return found
}

// TestArenaStaleHandleAfterDelete exercises the arena's use-after-free
// defence: a handle captured before its rule is deleted must resolve to
// nil afterwards — even once the slot has been recycled for a new rule —
// because freeEntry zeroes the slot's self field and allocEntry stamps the
// new tenant's own handle.
func TestArenaStaleHandleAfterDelete(t *testing.T) {
	s := New(Switch2())
	addFlow(t, s, 1, 100)
	r := trackedRule(s, 1)
	if r == nil {
		t.Fatal("flow 1 not tracked")
	}
	h := r.Ext
	if h == 0 {
		t.Fatal("tracked rule has no arena handle")
	}
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(1), Priority: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if e := s.entryAt(h); e != nil {
		t.Fatalf("stale handle %d resolved to %+v after delete", h, e)
	}
	// The slot is recycled by the next add; the stale handle must now
	// resolve to the NEW tenant only through the new rule's own Ext, never
	// through the old handle value held by a confused caller.
	addFlow(t, s, 2, 100)
	r2 := trackedRule(s, 2)
	if r2.Ext != h {
		t.Fatalf("free list did not recycle handle %d (got %d)", h, r2.Ext)
	}
	if e := s.entryAt(h); e == nil || e.rule != r2 {
		t.Fatal("recycled slot does not resolve to its new tenant")
	}
}

// TestArenaHandleReuseAfterExpiry asserts that timeout expiry feeds the
// free list exactly like explicit deletion: the expired rule's handle is
// stale immediately, and the next install reuses it.
func TestArenaHandleReuseAfterExpiry(t *testing.T) {
	clk := simclock.NewVirtual()
	s := New(Switch2(), WithClock(clk))
	addTimedFlow(t, s, 1, 0, 1)
	h := trackedRule(s, 1).Ext
	clk.Sleep(2 * time.Second)
	s.ExpireNow()
	if e := s.entryAt(h); e != nil {
		t.Fatalf("handle %d still resolves after expiry", h)
	}
	addFlow(t, s, 2, 100)
	if got := trackedRule(s, 2).Ext; got != h {
		t.Fatalf("expiry freed handle %d but next add got %d", h, got)
	}
}

// TestArenaGrowthMidChurn exhausts the free list while entry pointers are
// live in neither heap nor index, forcing arena growth (slice
// reallocation) between adds, then verifies all handles still resolve to
// the right rules — the property that makes handles, not pointers, the
// durable reference.
func TestArenaGrowthMidChurn(t *testing.T) {
	p := TestSwitch(64, PolicyLRU)
	p.SoftwareCapacity = 1024
	s := New(p)
	rng := rand.New(rand.NewSource(7))
	live := map[uint32]int32{}
	nextID := uint32(0)
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			id := nextID
			nextID++
			if addFlowErr(s, id, 100) != nil {
				continue
			}
			live[id] = trackedRule(s, id).Ext
		} else {
			var id uint32
			for id = range live {
				break
			}
			if err := s.FlowMod(&openflow.FlowMod{
				Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(id), Priority: 100,
			}); err != nil {
				t.Fatal(err)
			}
			if s.entryAt(live[id]) != nil {
				t.Fatalf("deleted flow %d handle still resolves", id)
			}
			delete(live, id)
		}
	}
	if len(s.entries) <= 1+ruleSlabSize {
		t.Fatalf("arena never grew past its first slab (%d slots); churn too small", len(s.entries))
	}
	for id, h := range live {
		e := s.entryAt(h)
		if e == nil {
			t.Fatalf("live flow %d lost its arena record", id)
		}
		if e.rule.Match != flowtable.ExactProbeMatch(id) {
			t.Fatalf("handle %d resolves to the wrong rule", h)
		}
	}
	if got, want := s.arenaLive(), len(live); got != want {
		t.Fatalf("arenaLive = %d, want %d", got, want)
	}
}

// TestResetReusesArena is the pooling contract for Reset(): the entry
// arena's backing array, the rule slabs, and the per-slot kernel-key
// slices must all survive a Reset and be reused by the next generation of
// rules — a fleet resetting switches between inference rounds must not
// leak one arena per round.
func TestResetReusesArena(t *testing.T) {
	s := New(OVS())
	const n = 40
	for id := uint32(0); id < n; id++ {
		addFlow(t, s, id, 100)
	}
	// Populate a kernel entry so one arena slot owns a kernel-key slice.
	sendProbe(t, s, 3)
	var kkHandle int32
	var kkCap int
	for h := int32(1); int(h) < len(s.entries); h++ {
		if e := s.entryAt(h); e != nil && cap(e.kernelKeys) > 0 {
			kkHandle, kkCap = h, cap(e.kernelKeys)
			break
		}
	}
	if kkHandle == 0 {
		t.Fatal("no arena slot acquired a kernel-key slice")
	}

	entryCap := cap(s.entries)
	entryBase := &s.entries[0]
	slabBase := &s.liveSlabs[0][0]

	s.Reset()

	if tcam, kern, sw := s.RuleCount(); tcam != 0 || kern != 0 || sw != 0 {
		t.Fatalf("rules survived Reset: %d/%d/%d", tcam, kern, sw)
	}
	for id := uint32(0); id < n; id++ {
		addFlow(t, s, id, 100)
	}
	if &s.entries[0] != entryBase || cap(s.entries) != entryCap {
		t.Fatal("Reset reallocated the entry arena instead of reusing it")
	}
	if &s.liveSlabs[0][0] != slabBase {
		t.Fatal("Reset did not recycle the rule slab through the pool")
	}
	if got := cap(s.entries[kkHandle].kernelKeys); got != kkCap {
		t.Fatalf("kernel-key slice capacity not retained across Reset: %d, want %d", got, kkCap)
	}
	// Handles are handed back in ascending order after Reset, keeping
	// replayed experiments deterministic.
	prev := int32(0)
	for id := uint32(0); id < n; id++ {
		h := trackedRule(s, id).Ext
		if h <= prev {
			t.Fatalf("post-Reset handles not ascending: flow %d got %d after %d", id, h, prev)
		}
		prev = h
	}
}

// collidingKeys brute-forces n distinct nonzero keys whose hashed home
// slot is exactly home under the given table mask.
func collidingKeys(mask uint64, home uint64, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(1); len(keys) < n; k++ {
		if hashKey(k)&mask == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkExact verifies that every key in want resolves to its handle and
// that every key in gone resolves to 0.
func checkExact(t *testing.T, x *exactIndex, want map[uint64]int32, gone []uint64) {
	t.Helper()
	for k, h := range want {
		if got := x.get(k); got != h {
			t.Fatalf("get(%#x) = %d, want %d", k, got, h)
		}
	}
	for _, k := range gone {
		if got := x.get(k); got != 0 {
			t.Fatalf("get(%#x) = %d after delete, want 0", k, got)
		}
	}
}

// TestExactIndexDeletionClustering drives the open-addressing table's
// backward-shift deletion through its adversarial shapes: long runs of
// same-home keys deleted front-first, back-first, and in random order;
// interleaved chains from adjacent home slots; and a chain that wraps the
// table boundary. After every single delete, every surviving key must
// still resolve — the tombstone-free invariant.
func TestExactIndexDeletionClustering(t *testing.T) {
	newTable := func() (*exactIndex, uint64) {
		x := &exactIndex{}
		x.init(40) // capacity 64: holds 48 keys before growth
		return x, uint64(len(x.slots) - 1)
	}

	deleteOrders := []struct {
		name  string
		order func(n int, rng *rand.Rand) []int
	}{
		{"front-first", func(n int, _ *rand.Rand) []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			return idx
		}},
		{"back-first", func(n int, _ *rand.Rand) []int {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = n - 1 - i
			}
			return idx
		}},
		{"random", func(n int, rng *rand.Rand) []int { return rng.Perm(n) }},
	}

	shapes := []struct {
		name string
		keys func(mask uint64) []uint64
	}{
		{"one-home", func(mask uint64) []uint64 {
			return collidingKeys(mask, 5, 20)
		}},
		{"interleaved-homes", func(mask uint64) []uint64 {
			a := collidingKeys(mask, 9, 8)
			b := collidingKeys(mask, 10, 8)
			c := collidingKeys(mask, 11, 8)
			var keys []uint64
			for i := 0; i < 8; i++ {
				keys = append(keys, a[i], b[i], c[i])
			}
			return keys
		}},
		{"wrapping", func(mask uint64) []uint64 {
			// Home at the last slot: the probe chain wraps through 0.
			return collidingKeys(mask, mask, 16)
		}},
	}

	for _, shape := range shapes {
		for _, ord := range deleteOrders {
			t.Run(shape.name+"/"+ord.name, func(t *testing.T) {
				x, mask := newTable()
				rng := rand.New(rand.NewSource(11))
				keys := shape.keys(mask)
				want := map[uint64]int32{}
				for i, k := range keys {
					h := int32(i + 1)
					x.put(k, h)
					want[k] = h
				}
				checkExact(t, x, want, nil)
				var gone []uint64
				for _, i := range ord.order(len(keys), rng) {
					x.del(keys[i])
					delete(want, keys[i])
					gone = append(gone, keys[i])
					checkExact(t, x, want, gone)
				}
				if x.used != 0 {
					t.Fatalf("used = %d after deleting everything", x.used)
				}
			})
		}
	}
}

// TestExactIndexChurnAndGrow interleaves colliding inserts, deletes, and
// re-inserts past the growth threshold, checking that growth rehashes
// chains correctly and that deletion never strands a key.
func TestExactIndexChurnAndGrow(t *testing.T) {
	x := &exactIndex{}
	x.init(0) // start at minimum capacity so growth happens mid-churn
	startCap := len(x.slots)
	rng := rand.New(rand.NewSource(23))
	want := map[uint64]int32{}
	var pool []uint64
	next := int32(1)
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) > 0 || len(pool) == 0 {
			k := uint64(rng.Int63())&0xffff + 1 // small space: heavy collisions
			if _, dup := want[k]; dup {
				x.set(k, next)
			} else {
				x.put(k, next)
				pool = append(pool, k)
			}
			want[k] = next
			next++
		} else {
			i := rng.Intn(len(pool))
			k := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			x.del(k)
			delete(want, k)
		}
	}
	if len(x.slots) <= startCap {
		t.Fatalf("table never grew (cap %d); churn too small", len(x.slots))
	}
	if x.used != len(want) {
		t.Fatalf("used = %d, want %d", x.used, len(want))
	}
	checkExact(t, x, want, nil)
}

// TestExactIndexZeroKey pins down the zero-key corner: emptiness is
// signalled by slots[i]==0 (the nil handle), not keys[i]==0, so the
// all-zero address pair is a perfectly valid key.
func TestExactIndexZeroKey(t *testing.T) {
	x := &exactIndex{}
	x.init(0)
	x.put(0, 7)
	if got := x.get(0); got != 7 {
		t.Fatalf("get(0) = %d, want 7", got)
	}
	x.set(0, 9)
	if got := x.get(0); got != 9 {
		t.Fatalf("get(0) = %d after set, want 9", got)
	}
	x.del(0)
	if got := x.get(0); got != 0 {
		t.Fatalf("get(0) = %d after delete, want 0", got)
	}
	x.del(0) // deleting an absent key is a no-op
	if x.used != 0 {
		t.Fatalf("used = %d, want 0", x.used)
	}
}
