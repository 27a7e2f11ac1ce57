package probe

import (
	"testing"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/switchsim"
)

func newEngine(p switchsim.Profile) (*Engine, *switchsim.Switch) {
	s := switchsim.New(p)
	return NewEngine(SimDevice{S: s}), s
}

func TestInstallProbeDelete(t *testing.T) {
	e, sw := newEngine(switchsim.Switch2())
	if err := e.Install(1, 100); err != nil {
		t.Fatal(err)
	}
	rtt, punted, err := e.Probe(1)
	if err != nil || punted {
		t.Fatalf("probe: rtt=%v punted=%v err=%v", rtt, punted, err)
	}
	if rtt <= 0 {
		t.Fatal("zero RTT")
	}
	_, punted, err = e.Probe(999)
	if err != nil || !punted {
		t.Fatalf("miss probe: punted=%v err=%v", punted, err)
	}
	if err := e.Delete(1, 100); err != nil {
		t.Fatal(err)
	}
	tcam, _, _ := sw.RuleCount()
	if tcam != 0 {
		t.Fatal("delete did not take")
	}
}

func TestModifyChangesActions(t *testing.T) {
	e, sw := newEngine(switchsim.OVS())
	if err := e.Install(5, 10); err != nil {
		t.Fatal(err)
	}
	mod := pattern.Pattern{Name: "mod", Ops: []pattern.Op{{Kind: pattern.OpMod, FlowID: 5, Priority: 10}}}
	if _, err := e.Run(mod); err != nil {
		t.Fatal(err)
	}
	_, _, software := sw.RuleCount()
	if software != 1 {
		t.Fatalf("rules = %d, want 1 (modify must not duplicate)", software)
	}
}

func TestRunPatternTimings(t *testing.T) {
	e, _ := newEngine(switchsim.Switch1())
	p := pattern.PriorityInstall(20, pattern.OrderAscending, nil)
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != 20 {
		t.Fatalf("timings = %d", len(res.Latencies))
	}
	var sum time.Duration
	for i, d := range res.Latencies {
		if d <= 0 {
			t.Fatalf("op %d: non-positive latency %v", i, d)
		}
		sum += d
	}
	if res.Total < sum {
		t.Fatalf("total %v < sum of ops %v", res.Total, sum)
	}
}

func TestRunPatternWithTrafficAndProbes(t *testing.T) {
	e, sw := newEngine(switchsim.OVS())
	p := pattern.Pattern{
		Name: "t",
		Ops: []pattern.Op{
			{Kind: pattern.OpAdd, FlowID: 1, Priority: 10, SendProbe: true},
		},
		Traffic: []pattern.TrafficStep{{FlowID: 1, Count: 3}},
	}
	if _, err := e.Run(p); err != nil {
		t.Fatal(err)
	}
	if st := sw.Stats(); st.PacketsSeen != 4 {
		t.Fatalf("packets = %d, want 4", st.PacketsSeen)
	}
}

func TestRunAbortsOnRejection(t *testing.T) {
	e, _ := newEngine(switchsim.Switch2().WithTCAMCapacity(2))
	p := pattern.PriorityInstall(5, pattern.OrderSame, nil)
	res, err := e.Run(p)
	if err == nil {
		t.Fatal("expected table-full abort")
	}
	if len(res.Latencies) != 2 {
		t.Fatalf("completed ops = %d, want 2", len(res.Latencies))
	}
}

func TestTimeOps(t *testing.T) {
	e, _ := newEngine(switchsim.OVS())
	ops := pattern.PriorityInstall(10, pattern.OrderSame, nil).Ops
	d, err := e.TimeOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("no time charged")
	}
}

func TestClearProbeRules(t *testing.T) {
	e, sw := newEngine(switchsim.OVS())
	for id := uint32(10); id < 15; id++ {
		if err := e.Install(id, 7); err != nil {
			t.Fatal(err)
		}
	}
	e.ClearProbeRules(10, 5, 7)
	_, _, software := sw.RuleCount()
	if software != 0 {
		t.Fatalf("rules left: %d", software)
	}
}

func TestBenchmarkChannel(t *testing.T) {
	e, sw := newEngine(switchsim.Switch1())
	rep, err := BenchmarkChannel(e)
	if err != nil {
		t.Fatal(err)
	}
	costs := sw.Profile().Costs
	// Same-priority add rate ≈ 1/AddBase.
	wantAdd := 1 / costs.AddBase.Seconds()
	if r := rep.AddPerSec / wantAdd; r < 0.7 || r > 1.4 {
		t.Fatalf("add rate %.0f/s vs expected %.0f/s", rep.AddPerSec, wantAdd)
	}
	wantMod := 1 / costs.ModBase.Seconds()
	if r := rep.ModPerSec / wantMod; r < 0.7 || r > 1.4 {
		t.Fatalf("mod rate %.0f/s vs expected %.0f/s", rep.ModPerSec, wantMod)
	}
	// Fast path well below punt path, both near calibration.
	if rep.FastRTT.Mean >= rep.PuntRTT.Mean {
		t.Fatalf("fast %v not below punt %v", rep.FastRTT.Mean, rep.PuntRTT.Mean)
	}
	if r := rep.FastRTT.Mean.Seconds() / sw.Profile().FastPath.Mean.Seconds(); r < 0.8 || r > 1.25 {
		t.Fatalf("fast RTT %v vs calibration %v", rep.FastRTT.Mean, sw.Profile().FastPath.Mean)
	}
	// Distribution digest ordering.
	if !(rep.FastRTT.Min <= rep.FastRTT.Median && rep.FastRTT.Median <= rep.FastRTT.P99) {
		t.Fatalf("summary disordered: %+v", rep.FastRTT)
	}
	// Device left clean.
	tcam, _, software := sw.RuleCount()
	if tcam != 0 || software != 0 {
		t.Fatalf("residue: %d/%d", tcam, software)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestProbeAllocFree gates the engine's send paths at zero allocations over a
// walk of flows it has never sent before: the engine owns one frame and one
// scratch flow-mod, so neither a probe, a traffic burst nor a pattern op has
// anything to allocate per flow. A per-flow frame cache fails the probe walk
// (a slab every 256 new flows); a flow-mod per pattern op fails the Run walk.
func TestProbeAllocFree(t *testing.T) {
	const flows = 1024
	e, _ := newEngine(switchsim.Switch2())
	for id := uint32(0); id < 2*flows; id++ {
		if err := e.Install(id, 100); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun calls the function once to warm up and once to count;
	// each call walks the next `flows` IDs.
	next := uint32(0)
	if n := testing.AllocsPerRun(1, func() {
		for end := next + flows; next < end; next++ {
			if _, punted, err := e.Probe(next); err != nil || punted {
				t.Fatalf("probe %d: punted=%v err=%v", next, punted, err)
			}
			if err := e.SendTraffic(next, 3); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("%v allocations in %d probes and bursts of new flows, want 0", n, flows)
	}

	// Run times into the engine's buffer: once it has grown to the
	// pattern, a run allocates nothing.
	p := pattern.Pattern{Name: "mods", Ops: make([]pattern.Op, flows)}
	for i := range p.Ops {
		p.Ops[i] = pattern.Op{Kind: pattern.OpMod, FlowID: uint32(i), Priority: 100}
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations in a %d-op pattern run, want 0", n, flows)
	}
}
