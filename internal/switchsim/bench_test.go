package switchsim

// Micro-benchmarks of the emulator itself: the wall-clock cost of the
// framework (not the simulated latencies, which accrue on virtual clocks).
// These bound how fast experiments and inference sweeps can run.

import (
	"math/rand"
	"testing"

	"tango/internal/flowtable"
	"tango/internal/openflow"
	"tango/internal/packet"
	traffic "tango/internal/workload"
)

func benchFlowMod(b *testing.B, prof Profile) {
	b.Helper()
	s := New(prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm := &openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Match:    flowtable.ExactProbeMatch(uint32(i)),
			Priority: 100,
			Actions:  flowtable.Output(1),
		}
		if err := s.FlowMod(fm); err != nil {
			// Table full: recycle by deleting everything and continuing.
			b.StopTimer()
			s.FlowMod(&openflow.FlowMod{Command: openflow.FlowDelete})
			b.StartTimer()
		}
	}
}

func BenchmarkFlowModAddOVS(b *testing.B)     { benchFlowMod(b, OVS()) }
func BenchmarkFlowModAddSwitch1(b *testing.B) { benchFlowMod(b, Switch1()) }
func BenchmarkFlowModAddSwitch2(b *testing.B) { benchFlowMod(b, Switch2()) }

func BenchmarkPipelineFastPath(b *testing.B) {
	s := New(Switch2())
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1),
		Priority: 100, Actions: flowtable.Output(1),
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineFullTable(b *testing.B) {
	// Fast-path lookups against a full 2560-entry TCAM: the exact-IP index
	// keeps this O(1).
	s := New(Switch2())
	for id := uint32(0); id < 2560; id++ {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 2000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// classifyExactSwitch builds a full 2560-entry TCAM-only switch and a
// pre-decoded probe frame that hits one of its residents — the isolated
// exact-match lookup hot path (open-addressing probe + arena record read).
func classifyExactSwitch(tb testing.TB) (*Switch, *packet.Frame, int) {
	tb.Helper()
	s := New(Switch2())
	for id := uint32(0); id < 2560; id++ {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(id),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: 1234})
	if err != nil {
		tb.Fatal(err)
	}
	f := new(packet.Frame)
	if err := packet.DecodeInto(f, raw); err != nil {
		tb.Fatal(err)
	}
	return s, f, len(raw)
}

// BenchmarkClassifyExact isolates the probe-hit lookup path: frame key →
// open-addressing index → flat arena entry → TCAM-hit accounting. This is
// the per-probe inner loop of every inference sweep.
func BenchmarkClassifyExact(b *testing.B) {
	s, f, size := classifyExactSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendFrameN(f, 1, size, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassifyExactAllocFree gates the lookup path at zero allocations per
// probe, the same way the telemetry hot path is gated: a regression that
// boxes, grows, or rehashes on a plain probe hit fails the suite, not just
// the benchmark trendline.
func TestClassifyExactAllocFree(t *testing.T) {
	s, f, size := classifyExactSwitch(t)
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := s.SendFrameN(f, 1, size, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("classifyExact probe hit allocates %v times per packet, want 0", avg)
	}
}

// TestStrictDeleteAllocFree gates a strict delete of an exact probe rule at
// zero allocations: clearing a switch between probing rounds is one delete
// per rule, and a victim list allocated per delete was once most of an
// inspection's allocations. On the policy-cache switch a delete of a TCAM
// resident also refills the slot from software. (What the arena's free lists
// and the tables' maps allocate as they resize is a handful per thousand
// deletes, which AllocsPerRun's integer average reads as zero.)
func TestStrictDeleteAllocFree(t *testing.T) {
	const rules = 512
	p := TestSwitch(rules/4, PolicyFIFO)
	p.SoftwareCapacity = rules
	s := New(p)
	fm := &openflow.FlowMod{Command: openflow.FlowAdd, Priority: 100, Actions: flowtable.Output(1)}
	for id := uint32(0); id < rules; id++ {
		fm.Match = flowtable.ExactProbeMatch(id)
		if err := s.FlowMod(fm); err != nil {
			t.Fatal(err)
		}
	}
	// One warm-up call and rules-1 counted ones: each deletes the next rule.
	next := uint32(0)
	fm.Command = openflow.FlowDeleteStrict
	if avg := testing.AllocsPerRun(rules-1, func() {
		fm.Match = flowtable.ExactProbeMatch(next)
		next++
		if err := s.FlowMod(fm); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("a strict delete allocates %v times, want 0", avg)
	}
	if tcam, _, soft := s.RuleCount(); tcam+soft != 0 {
		t.Errorf("%d rules left after deleting all", tcam+soft)
	}
}

// churnFrame is one flow's decoded probe frame and its encoded length.
type churnFrame struct {
	f    packet.Frame
	size int
}

// churnSwitch installs flows rules on a tcam-slot policy-cache switch and
// sends one warm rotation, which brings every slice to steady-state
// capacity.
func churnSwitch(tb testing.TB, policy Policy, tcam, flows int) (*Switch, []churnFrame) {
	tb.Helper()
	p := TestSwitch(tcam, policy)
	p.SoftwareCapacity = flows + tcam
	s := New(p)
	frames := make([]churnFrame, flows)
	for id := range frames {
		if err := s.FlowMod(&openflow.FlowMod{
			Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(uint32(id)),
			Priority: 100, Actions: flowtable.Output(1),
		}); err != nil {
			tb.Fatal(err)
		}
		raw, err := packet.BuildProbe(packet.ProbeSpec{FlowID: uint32(id)})
		if err != nil {
			tb.Fatal(err)
		}
		if err := packet.DecodeInto(&frames[id].f, raw); err != nil {
			tb.Fatal(err)
		}
		frames[id].size = len(raw)
	}
	for i := range frames {
		if _, err := s.SendFrameN(&frames[i].f, 1, frames[i].size, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return s, frames
}

// benchDemoteChurn rotates 192 flows through a 64-slot TCAM.
func benchDemoteChurn(b *testing.B, policy Policy) {
	const flows = 192
	s, frames := churnSwitch(b, policy, 64, flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf := &frames[i%flows]
		if _, err := s.SendFrameN(&cf.f, 1, cf.size, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemoteChurn drives an LRU demote storm: with 192 flows rotating
// through a 64-slot TCAM, every packet touches the globally least-recent
// flow, which the policy then promotes — demoting the TCAM's LRU resident.
// Each iteration is a full promote+demote pair: four heap membership moves
// and two tier-flag flips, the churn pattern whose GC write barriers
// dominated the old pointer-heap profiles.
func BenchmarkDemoteChurn(b *testing.B) { benchDemoteChurn(b, PolicyLRU) }

// BenchmarkDemoteChurnCustom sends the same rotation through the two custom
// policies, whose victims come from the group-representative heaps
// (dest-aggregate) and the epoch-reheapified heaps (FDRC, here rolling every
// 4,096 packets).
func BenchmarkDemoteChurnCustom(b *testing.B) {
	b.Run("destagg", func(b *testing.B) { benchDemoteChurn(b, PolicyDestAggregate()) })
	b.Run("fdrc", func(b *testing.B) { benchDemoteChurn(b, PolicyFDRC(0)) })
}

// TestCustomPolicyAllocFree gates the custom policies' data path at zero
// allocations per packet on a warmed 256-entry switch: TCAM hits, software
// hits that promote and so demote a victim, and — FDRC's window is 64
// packets here — epoch rolls that rebuild both heaps.
func TestCustomPolicyAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"destagg", PolicyDestAggregate()},
		{"fdrc", PolicyFDRC(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const flows = 1024
			s, frames := churnSwitch(t, tc.policy, 256, flows)
			// A skewed walk: three packets in four go to the first 128 flows,
			// which therefore hold TCAM slots; the rest sweeps all flows, and
			// what it finds in software out-scores some resident soon enough.
			next := 0
			send := func() {
				for i := 0; i < 256; i++ {
					id := next % 128
					if next%4 == 3 {
						id = (next / 4 * 7) % flows
					}
					next++
					cf := &frames[id]
					if _, err := s.SendFrameN(&cf.f, 1, cf.size, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 64; i++ {
				send()
			}
			before := s.Stats()
			avg := testing.AllocsPerRun(200, send)
			after := s.Stats()
			if avg != 0 {
				t.Errorf("%v allocations per 256 packets, want 0", avg)
			}
			if after.FastHits == before.FastHits || after.SlowHits == before.SlowHits ||
				after.Evictions == before.Evictions {
				t.Errorf("walk missed a path: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestCacheMovesAllocFree gates LRU cache moves at zero allocations: a
// warmed 256-entry LRU switch over 4,096 rules replays one Zipf segment —
// popularity decorrelated from install order, so hot flows start in software
// and every few packets promote one flow and demote another. A move changes
// tier flags, heap membership and TCAM units; none of that may allocate.
func TestCacheMovesAllocFree(t *testing.T) {
	const flows = 4096
	s, frames := churnSwitch(t, PolicyLRU, 256, flows)
	trace := traffic.Generate(traffic.Options{Kind: traffic.KindZipf, Flows: flows, Packets: 4096, Seed: 5})
	perm := rand.New(rand.NewSource(6)).Perm(flows)
	const runs = 10
	before := s.Stats()
	avg := testing.AllocsPerRun(runs, func() {
		for _, id := range trace {
			cf := &frames[perm[id]]
			if _, err := s.SendFrameN(&cf.f, 1, cf.size, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	after := s.Stats()
	if avg != 0 {
		t.Errorf("%v allocations per %d-packet segment, want 0", avg, len(trace))
	}
	// AllocsPerRun replays the segment once more to warm up. The TCAM is
	// full, so every promotion demotes a resident.
	segments := uint64(runs + 1)
	if moves := after.Evictions - before.Evictions; moves < segments*uint64(len(trace))/16 {
		t.Errorf("only %d demotions in %d segments of %d packets; the replay does not churn the cache", moves, segments, len(trace))
	}
}

func BenchmarkMicroflowKernelHit(b *testing.B) {
	s := New(OVS())
	if err := s.FlowMod(&openflow.FlowMod{
		Command: openflow.FlowAdd, Match: flowtable.ExactProbeMatch(1),
		Priority: 100, Actions: flowtable.Output(1),
	}); err != nil {
		b.Fatal(err)
	}
	raw, _ := packet.BuildProbe(packet.ProbeSpec{FlowID: 1})
	s.SendPacket(raw, 1) // warm the kernel entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendPacket(raw, 1); err != nil {
			b.Fatal(err)
		}
	}
}
