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

// trackedRule returns the installed rule for flow id, or nil.
func trackedRule(s *Switch, id uint32) *flowtable.Rule {
	want := flowtable.ExactProbeMatch(id)
	for _, r := range s.rules.Rules() {
		if r.Match == want {
			return r
		}
	}
	return nil
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
