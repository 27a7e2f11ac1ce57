package switchsim

import (
	"math/rand"
	"testing"
	"time"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
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
// arena's backing array, the rule slabs, and the kernel slot array must all
// survive a Reset and be reused by the next generation of rules — a fleet
// resetting switches between inference rounds must not leak one arena per
// round.
func TestResetReusesArena(t *testing.T) {
	s := New(OVS())
	const n = 40
	for id := uint32(0); id < n; id++ {
		addFlow(t, s, id, 100)
	}
	// Populate kernel entries so the slot array has grown.
	for id := uint32(0); id < n; id++ {
		sendProbe(t, s, id)
	}
	if len(s.kslots) != n+1 {
		t.Fatalf("%d kernel slots for %d cached microflows", len(s.kslots)-1, n)
	}

	entryCap := cap(s.entries)
	entryBase := &s.entries[0]
	slabBase := &s.liveSlabs[0][0]
	slotBase, slotCap := &s.kslots[0], cap(s.kslots)

	s.Reset()

	if tcam, kern, sw := s.RuleCount(); tcam != 0 || kern != 0 || sw != 0 {
		t.Fatalf("rules survived Reset: %d/%d/%d", tcam, kern, sw)
	}
	for id := uint32(0); id < n; id++ {
		addFlow(t, s, id, 100)
		sendProbe(t, s, id)
	}
	if &s.entries[0] != entryBase || cap(s.entries) != entryCap {
		t.Fatal("Reset reallocated the entry arena instead of reusing it")
	}
	if &s.liveSlabs[0][0] != slabBase {
		t.Fatal("Reset did not recycle the rule slab through the pool")
	}
	if &s.kslots[0] != slotBase || cap(s.kslots) != slotCap {
		t.Fatal("Reset reallocated the kernel slot array instead of reusing it")
	}
	checkArena(t, s)
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

// checkKernel asserts the microflow cache's invariants: every mapped key's
// slot holds that key and a live owner, and sits on that owner's chain;
// every chain holds only its owner's mapped slots; and every other slot is
// on the free list.
func checkKernel(t *testing.T, s *Switch) {
	t.Helper()
	if s.kernel == nil {
		return
	}
	onChain := make([]bool, len(s.kslots))
	chained := 0
	for h := int32(1); int(h) < len(s.entries); h++ {
		e := s.entryAt(h)
		if e == nil {
			continue
		}
		for sl := e.kernelHead; sl != 0; sl = s.kslots[sl].next {
			ks := &s.kslots[sl]
			if onChain[sl] {
				t.Fatalf("kernel slot %d is on two chains, or twice on entry %d's", sl, h)
			}
			onChain[sl] = true
			chained++
			if ks.owner != h {
				t.Fatalf("kernel slot %d on entry %d's chain names owner %d", sl, h, ks.owner)
			}
			if got, ok := s.kernel[ks.key]; !ok || got != sl {
				t.Fatalf("kernel slot %d on entry %d's chain is not mapped from its key", sl, h)
			}
		}
	}
	if chained != len(s.kernel) {
		t.Fatalf("owner chains hold %d kernel slots, the map %d", chained, len(s.kernel))
	}
	free := 0
	for sl := s.kfree; sl != 0; sl = s.kslots[sl].next {
		if onChain[sl] || s.kslots[sl].owner != 0 {
			t.Fatalf("free kernel slot %d is also owned", sl)
		}
		onChain[sl] = true
		free++
	}
	if chained+free != len(s.kslots)-1 {
		t.Fatalf("%d kernel slots, %d owned and %d free", len(s.kslots)-1, chained, free)
	}
}

// TestKernelKeysBoundedUnderEviction churns three rules' microflows through
// a two-entry kernel cache. Every miss re-installs a key the LRU evicted a
// moment earlier, so a chain that kept evicted keys would grow by one per
// probe and an invalidation would walk all of them. Each owner's chain must
// stay within the live kernel entries it owns, and the steady churn must
// allocate nothing.
func TestKernelKeysBoundedUnderEviction(t *testing.T) {
	p := OVS()
	p.KernelCapacity = 2
	s := New(p)
	const rules = 3
	frames := make([][]byte, rules)
	for id := range frames {
		addFlow(t, s, uint32(id), 100)
		raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: uint32(id)})
		if err != nil {
			t.Fatal(err)
		}
		frames[id] = raw
	}
	for i := 0; i < 3000; i++ {
		if _, err := s.SendPacket(frames[i%rules], 1); err != nil {
			t.Fatal(err)
		}
		for id := uint32(0); id < rules; id++ {
			e := s.entryOf(trackedRule(s, id))
			owned, chain := 0, 0
			for _, sl := range s.kernel {
				if s.kslots[sl].owner == e.self {
					owned++
				}
			}
			for sl := e.kernelHead; sl != 0; sl = s.kslots[sl].next {
				chain++
			}
			if chain > owned {
				t.Fatalf("probe %d: flow %d's kernel chain holds %d keys, it owns %d live entries", i, id, chain, owned)
			}
		}
	}
	checkArena(t, s)
	if ev := s.Stats().Evictions; ev < 2900 {
		t.Fatalf("%d kernel evictions in 3000 cycling probes; the cache is not churning", ev)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := s.SendPacket(frames[i%rules], 1); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("a kernel-cache miss with eviction allocates %v times", n)
	}
	// Invalidation walks only the live chain.
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(0), Priority: 100}); err != nil {
		t.Fatal(err)
	}
	checkArena(t, s)
}
