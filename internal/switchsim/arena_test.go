package switchsim

import (
	"math/rand"
	"reflect"
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
	return int(s.handles) - len(s.freeHandles)
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
// because freeRule zeroes the slot's self field and allocRule stamps the
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
// live in neither heap nor index, forcing arena growth (a new slab) between
// adds, then verifies all handles still resolve to the right rules, and
// that records and rules never moved: slabs are not copied to grow.
func TestArenaGrowthMidChurn(t *testing.T) {
	p := TestSwitch(64, PolicyLRU)
	p.SoftwareCapacity = 1024
	s := New(p)
	rng := rand.New(rand.NewSource(7))
	live := map[uint32]int32{}
	where := map[uint32]*entry{}
	nextID := uint32(0)
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			id := nextID
			nextID++
			if addFlowErr(s, id, 100) != nil {
				continue
			}
			r := trackedRule(s, id)
			live[id], where[id] = r.Ext, s.entryOf(r)
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
	if len(s.slabs) < 2 {
		t.Fatalf("arena never grew past its first slab (%d handles); churn too small", s.handles)
	}
	for id, h := range live {
		e := s.entryAt(h)
		if e == nil {
			t.Fatalf("live flow %d lost its arena record", id)
		}
		if e != where[id] || e.rule != &s.slot(h).rule {
			t.Fatalf("flow %d's record or rule moved while the arena grew", id)
		}
		if e.rule.Match != flowtable.ExactProbeMatch(id) {
			t.Fatalf("handle %d resolves to the wrong rule", h)
		}
	}
	if got, want := s.arenaLive(), len(live); got != want {
		t.Fatalf("arenaLive = %d, want %d", got, want)
	}
}

// TestResetReusesArena is the pooling contract for Reset(): the slabs of
// rules and records, and the kernel slot array, must all survive a Reset
// and be reused by the next generation of rules — a fleet resetting
// switches between inference rounds must not leak one arena per round.
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

	slabBase := s.slabs[0]
	slotBase, slotCap := &s.kslots[0], cap(s.kslots)

	s.Reset()

	if tcam, kern, sw := s.RuleCount(); tcam != 0 || kern != 0 || sw != 0 {
		t.Fatalf("rules survived Reset: %d/%d/%d", tcam, kern, sw)
	}
	for id := uint32(0); id < n; id++ {
		addFlow(t, s, id, 100)
		sendProbe(t, s, id)
	}
	if len(s.slabs) != 1 || s.slabs[0] != slabBase || len(s.slabPool) != 0 {
		t.Fatal("Reset did not recycle the slab through the pool")
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

// checkKernel asserts the microflow cache's invariants: every index entry
// leads to a chain of live slots holding its address word, each of whose
// 5-tuples is cached once; every live slot is on its live owner's chain and
// on its word's index chain, and every other slot is on the free list; and
// RuleCount's kernel count is the number of live slots.
func checkKernel(t *testing.T, s *Switch) {
	t.Helper()
	if s.kslots == nil {
		return
	}
	onChain := make([]bool, len(s.kslots))
	chained := 0
	for h := int32(1); h <= s.handles; h++ {
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
			if got := s.kernelLookup(ks.key); got != sl {
				t.Fatalf("kernel slot %d on entry %d's chain is found as slot %d from its key", sl, h, got)
			}
		}
	}
	indexed := 0
	// The index has no iterator outside its package; its two slot arrays
	// are read here through reflect.
	ix := reflect.ValueOf(&s.kernel).Elem()
	keys, vals := ix.FieldByName("keys"), ix.FieldByName("vals")
	for i := 0; i < vals.Len(); i++ {
		addr, head := keys.Index(i).Uint(), int32(vals.Index(i).Int())
		if head == 0 {
			continue
		}
		seen := map[packet.FiveTuple]bool{}
		for sl := head; sl != 0; sl = s.kslots[sl].inext {
			ks := s.kslots[sl]
			if ks.key.Addrs != addr || ks.owner == 0 || s.entryAt(ks.owner) == nil {
				t.Fatalf("index chain of %#x holds slot %d: %+v", addr, sl, ks)
			}
			if !onChain[sl] {
				t.Fatalf("indexed kernel slot %d is on no owner's chain", sl)
			}
			if seen[ks.key] {
				t.Fatalf("index chain of %#x caches %+v twice", addr, ks.key)
			}
			seen[ks.key] = true
			indexed++
		}
	}
	if chained != indexed {
		t.Fatalf("owner chains hold %d kernel slots, the index chains %d", chained, indexed)
	}
	if s.kernelLen != chained {
		t.Fatalf("RuleCount reports %d kernel entries, %d slots are live", s.kernelLen, chained)
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
			for sl := range s.kslots {
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

// TestKernelChainSharesAddrWord sends one rule's flow from five source ports
// through a four-entry kernel cache. The microflows share an address word,
// so one index chain holds all their slots: each must hit its own slot, the
// LRU eviction must unlink the least recently used one from the middle of
// the chain, and deleting the rule must empty the chain and its index entry.
func TestKernelChainSharesAddrWord(t *testing.T) {
	p := OVS()
	p.KernelCapacity = 4
	s := New(p)
	const id = 7
	addFlow(t, s, id, 100)
	addr, _ := packet.PackAddrs(packet.ProbeSrcIP(id), packet.ProbeDstIP(id))
	frames := make([]packet.Frame, 5)
	for k := range frames {
		packet.BuildProbeFrame(&frames[k], packet.ProbeSpec{FlowID: id})
		frames[k].TCP.SrcPort += uint16(k)
	}
	send := func(k int, want PathKind) {
		t.Helper()
		raw, err := frames[k].AppendSerialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SendPacket(raw, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Path != want {
			t.Fatalf("port +%d took the %v path, want %v", k, res.Path, want)
		}
		checkArena(t, s)
	}
	cached := func(k int) bool {
		ft, _ := frames[k].FiveTuple()
		return s.kernelLookup(ft) != 0
	}
	chainLen := func() (n int) {
		for sl := s.kernel.Get(addr); sl != 0; sl = s.kslots[sl].inext {
			n++
		}
		return n
	}
	for k := 0; k < 4; k++ {
		send(k, PathSlow)
	}
	if n := chainLen(); n != 4 {
		t.Fatalf("four microflows of one address pair: index chain of %d slots", n)
	}
	for _, k := range []int{0, 1, 2, 3, 2, 0} {
		send(k, PathFast)
	}
	// Port +1 is now the least recently used, and the chain is newest
	// first: 3, 2, 1, 0.
	send(4, PathSlow)
	if cached(1) || !cached(4) || chainLen() != 4 {
		t.Fatalf("after an eviction: port +1 cached %v, port +4 cached %v, chain of %d", cached(1), cached(4), chainLen())
	}
	send(1, PathSlow)
	if err := s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Match: flowtable.ExactProbeMatch(id), Priority: 100}); err != nil {
		t.Fatal(err)
	}
	if _, kern, _ := s.RuleCount(); kern != 0 || s.kernel.Get(addr) != 0 {
		t.Fatalf("deleting the rule left %d kernel entries, index head %d", kern, s.kernel.Get(addr))
	}
	checkArena(t, s)
}
