package infer

import (
	"math"
	"testing"
	"time"

	"tango/internal/core/pattern"
	"tango/internal/core/probe"
	"tango/internal/packet"
	"tango/internal/switchsim"
)

func engineFor(p switchsim.Profile, opts ...switchsim.Option) (*probe.Engine, *switchsim.Switch) {
	s := switchsim.New(p, opts...)
	return probe.NewEngine(probe.SimDevice{S: s}), s
}

func relErr(est, actual int) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return math.Abs(float64(est-actual)) / float64(actual)
}

func TestProbeSizesTCAMOnly(t *testing.T) {
	// Switch #2 style: one TCAM layer, rejection on overflow.
	const cap = 600
	e, _ := engineFor(switchsim.Switch2().WithTCAMCapacity(cap))
	res, err := ProbeSizes(e, SizeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheFull {
		t.Fatal("expected rejection-driven termination")
	}
	if res.RulesInstalled != cap {
		t.Fatalf("installed %d, want %d", res.RulesInstalled, cap)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("levels = %+v, want 1", res.Levels)
	}
	if res.Levels[0].Size != cap {
		t.Fatalf("size = %d, want %d", res.Levels[0].Size, cap)
	}
}

func TestProbeSizesTwoLevelFIFO(t *testing.T) {
	// Policy-cache switch: TCAM 500 + bounded software 1500.
	p := switchsim.TestSwitch(500, switchsim.PolicyFIFO)
	p.SoftwareCapacity = 1500
	e, sw := engineFor(p)
	res, err := ProbeSizes(e, SizeOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheFull {
		t.Fatal("expected rejection at software capacity")
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %v", res)
	}
	if e := relErr(res.Levels[0].Size, 500); e > 0.05 {
		t.Fatalf("TCAM size estimate %d off by %.1f%% (want <5%%)", res.Levels[0].Size, e*100)
	}
	if e := relErr(res.Levels[1].Size, 1500); e > 0.05 {
		t.Fatalf("software size estimate %d off by %.1f%%", res.Levels[1].Size, e*100)
	}
	// The census estimator must be at least as accurate.
	if e := relErr(res.Levels[0].Census, 500); e > 0.02 {
		t.Fatalf("census %d off by %.1f%%", res.Levels[0].Census, e*100)
	}
	tcam, _, _ := sw.RuleCount()
	if tcam != 500 {
		t.Fatalf("ground truth changed: %d", tcam)
	}
}

func TestProbeSizesLRUCache(t *testing.T) {
	// LRU promotion churns cache membership during probing; the size
	// estimate must still converge (hits do not change membership).
	p := switchsim.TestSwitch(300, switchsim.PolicyLRU)
	p.SoftwareCapacity = 900
	e, _ := engineFor(p)
	res, err := ProbeSizes(e, SizeOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %v", res)
	}
	if e := relErr(res.Levels[0].Size, 300); e > 0.05 {
		t.Fatalf("LRU cache size estimate %d off by %.1f%%", res.Levels[0].Size, e*100)
	}
}

func TestProbeSizesBudgetCap(t *testing.T) {
	// OVS never rejects; the budget must stop the doubling.
	e, _ := engineFor(switchsim.OVS())
	res, err := ProbeSizes(e, SizeOptions{Seed: 4, MaxRules: 256, Trials: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheFull {
		t.Fatal("OVS should not reject")
	}
	if res.RulesInstalled != 256 {
		t.Fatalf("installed %d, want 256", res.RulesInstalled)
	}
	// Every flow was warmed into the kernel cache, so one fast tier.
	if len(res.Levels) != 1 {
		t.Fatalf("levels = %v", res)
	}
}

func TestProbeSizesDefaultRouteOffByOne(t *testing.T) {
	// Figure 2(b): the pre-installed default route eats one TCAM slot, so
	// inference should see capacity-1 fast entries.
	p := switchsim.TestSwitch(256, switchsim.PolicyFIFO)
	p.SoftwareCapacity = 768
	e, _ := engineFor(p, switchsim.WithDefaultRoute())
	res, err := ProbeSizes(e, SizeOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %v", res)
	}
	if got := res.Levels[0].Census; got != 255 {
		t.Fatalf("fast-tier census = %d, want 255", got)
	}
}

func TestProbePolicyFIFO(t *testing.T) {
	e, _ := engineFor(switchsim.TestSwitch(100, switchsim.PolicyFIFO))
	res, err := ProbePolicy(e, PolicyOptions{CacheSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := switchsim.PolicyFIFO
	if len(res.Policy.Keys) != 1 || res.Policy.Keys[0] != want.Keys[0] {
		t.Fatalf("policy = %v (rounds %+v), want %v", res.Policy, res.Rounds, want)
	}
}

func TestProbePolicyLRU(t *testing.T) {
	e, _ := engineFor(switchsim.TestSwitch(100, switchsim.PolicyLRU))
	res, err := ProbePolicy(e, PolicyOptions{CacheSize: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policy.Keys) == 0 || res.Policy.Keys[0] != (switchsim.SortKey{Attr: switchsim.AttrUseTime, HighIsBetter: true}) {
		t.Fatalf("policy = %v (rounds %+v), want LRU", res.Policy, res.Rounds)
	}
}

func TestProbePolicyLFU(t *testing.T) {
	e, _ := engineFor(switchsim.TestSwitch(80, switchsim.PolicyLFU))
	res, err := ProbePolicy(e, PolicyOptions{CacheSize: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Policy.Equal(switchsim.PolicyLFU) {
		t.Fatalf("policy = %v (rounds %+v), want %v", res.Policy, res.Rounds, switchsim.PolicyLFU)
	}
}

func TestProbePolicyPriority(t *testing.T) {
	e, _ := engineFor(switchsim.TestSwitch(80, switchsim.PolicyPriority))
	res, err := ProbePolicy(e, PolicyOptions{CacheSize: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Policy.Equal(switchsim.PolicyPriority) {
		t.Fatalf("policy = %v (rounds %+v), want %v", res.Policy, res.Rounds, switchsim.PolicyPriority)
	}
}

func TestProbePolicyInconclusiveOnOVS(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	res, err := ProbePolicy(e, PolicyOptions{CacheSize: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive {
		t.Fatalf("expected inconclusive on a microflow switch, got %v", res.Policy)
	}
}

func TestProbePolicyBadCacheSize(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	if _, err := ProbePolicy(e, PolicyOptions{}); err != ErrBadCacheSize {
		t.Fatalf("err = %v, want ErrBadCacheSize", err)
	}
}

// TestProbersStayInTheirBlocks: Algorithm 2's rounds fit packet.PolicyFlows
// up to a cache of 32,256 entries, and the next size is ErrBadCacheSize
// before any flow-mod; a MaxRules past packet.SizeFlows is capped at it.
func TestProbersStayInTheirBlocks(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	if _, err := ProbePolicy(e, PolicyOptions{CacheSize: 32257}); err != ErrBadCacheSize {
		t.Fatalf("cache size 32257: err = %v, want ErrBadCacheSize", err)
	}
	if n := e.Stats().FlowMods; n != 0 {
		t.Fatalf("the rejected call sent %d flow-mods, want 0", n)
	}
	if _, err := ProbePolicy(e, PolicyOptions{CacheSize: 32256}); err != nil {
		t.Fatalf("cache size 32256: %v", err)
	}
	if got := (SizeOptions{MaxRules: 1 << 30}).withDefaults().MaxRules; got != int(packet.SizeFlows.Len()) {
		t.Fatalf("MaxRules 1<<30 resolves to %d, want the size block's %d flows", got, packet.SizeFlows.Len())
	}
}

func TestDetectMicroflowCaching(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	ovs, ratio, err := DetectMicroflowCaching(e, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !ovs {
		t.Fatalf("OVS not detected as microflow (ratio %.2f)", ratio)
	}
	e2, _ := engineFor(switchsim.Switch2())
	hw, _, err := DetectMicroflowCaching(e2, 99, 10)
	if err != nil {
		t.Fatal(err)
	}
	if hw {
		t.Fatal("TCAM-only switch misdetected as microflow")
	}
}

func TestMeasureCostsHardware(t *testing.T) {
	e, sw := engineFor(switchsim.Switch1())
	card, err := MeasureCosts(e, "Switch#1", CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	costs := sw.Profile().Costs
	// Same-priority adds near AddBase.
	if r := float64(card.AddSamePriority) / float64(costs.AddBase); r < 0.7 || r > 1.4 {
		t.Fatalf("AddSamePriority %v vs true %v", card.AddSamePriority, costs.AddBase)
	}
	// Ascending adds near AddBase + priority delta.
	wantAsc := costs.AddBase + costs.AddPriorityDelta
	if r := float64(card.AddNewPriority) / float64(wantAsc); r < 0.7 || r > 1.4 {
		t.Fatalf("AddNewPriority %v vs true %v", card.AddNewPriority, wantAsc)
	}
	// Shift slope near ShiftUnit.
	if r := float64(card.ShiftPerEntry) / float64(costs.ShiftUnit); r < 0.5 || r > 2.0 {
		t.Fatalf("ShiftPerEntry %v vs true %v", card.ShiftPerEntry, costs.ShiftUnit)
	}
	// Mod / Del near calibration.
	if r := float64(card.Mod) / float64(costs.ModBase); r < 0.8 || r > 1.25 {
		t.Fatalf("Mod %v vs true %v", card.Mod, costs.ModBase)
	}
	if r := float64(card.Del) / float64(costs.DelBase); r < 0.8 || r > 1.25 {
		t.Fatalf("Del %v vs true %v", card.Del, costs.DelBase)
	}
	// The card must leave the switch clean.
	tcam, _, software := sw.RuleCount()
	if tcam != 0 || software != 0 {
		t.Fatalf("residue after MeasureCosts: %d/%d", tcam, software)
	}
}

func TestMeasureCostsOVSFlat(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	card, err := MeasureCosts(e, "OVS", CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if card.ShiftPerEntry > card.AddSamePriority/10 {
		t.Fatalf("OVS shift cost %v should be negligible next to %v", card.ShiftPerEntry, card.AddSamePriority)
	}
	// Priority-independent: same vs new priority within 30%.
	r := float64(card.AddNewPriority) / float64(card.AddSamePriority)
	if r < 0.7 || r > 1.3 {
		t.Fatalf("OVS priority sensitivity: same=%v new=%v", card.AddSamePriority, card.AddNewPriority)
	}
}

func TestMeasurePriorityCurves(t *testing.T) {
	e, sw := engineFor(switchsim.Switch1())
	curves, err := MeasurePriorityCurves(e, CurveOptions{Counts: []int{100, 400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("orders = %d", len(curves))
	}
	// Shape: same < ascending < random < descending at the larger count.
	last := func(o pattern.Order) time.Duration { return curves[o][1].Total }
	same, asc := last(pattern.OrderSame), last(pattern.OrderAscending)
	rnd, desc := last(pattern.OrderRandom), last(pattern.OrderDescending)
	if !(same < asc && asc < rnd && rnd < desc) {
		t.Fatalf("curve order violated: same=%v asc=%v rnd=%v desc=%v", same, asc, rnd, desc)
	}
	// Curves are monotone in n.
	for o, pts := range curves {
		if pts[0].N != 100 || pts[1].N != 400 {
			t.Fatalf("%v counts = %+v", o, pts)
		}
		if pts[0].Total >= pts[1].Total {
			t.Fatalf("%v not monotone: %+v", o, pts)
		}
	}
	// The device is restored between runs.
	tcam, _, software := sw.RuleCount()
	if tcam != 0 || software != 0 {
		t.Fatalf("residue: %d/%d", tcam, software)
	}
}

func TestMeasurePriorityCurvesOVSFlat(t *testing.T) {
	e, _ := engineFor(switchsim.OVS())
	curves, err := MeasurePriorityCurves(e, CurveOptions{Counts: []int{300}})
	if err != nil {
		t.Fatal(err)
	}
	asc := curves[pattern.OrderAscending][0].Total.Seconds()
	desc := curves[pattern.OrderDescending][0].Total.Seconds()
	if r := desc / asc; r > 1.2 || r < 0.8 {
		t.Fatalf("OVS curves not flat: asc=%v desc=%v", asc, desc)
	}
}

func TestProbeSizesThreeTierBanks(t *testing.T) {
	// The Figure 5 switch: two fast TCAM banks (1024 + 1023 entries after
	// the default route) above a software table. Size probing must resolve
	// all three layers.
	p := switchsim.FigureFiveSwitch()
	p.SoftwareCapacity = 3072
	e, _ := engineFor(p, switchsim.WithDefaultRoute())
	res, err := ProbeSizes(e, SizeOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 3 {
		t.Fatalf("levels = %v, want 3 (two banks + software)", res)
	}
	if got := res.Levels[0].Census; got != 1024 {
		t.Errorf("fast bank census = %d, want 1024", got)
	}
	// The priority-0 default route sorts to the bottom of the TCAM, i.e.
	// into the second bank, so probe rules see 1022 slots there.
	if got := res.Levels[1].Census; got != 1022 {
		t.Errorf("second bank census = %d, want 1022 (default route occupies a second-bank slot)", got)
	}
	if e := relErr(res.Levels[0].Size, 1024); e > 0.05 {
		t.Errorf("fast bank estimate %d off by %.1f%%", res.Levels[0].Size, e*100)
	}
}

func TestProbePolicyCustomComposites(t *testing.T) {
	// LEX composites beyond the named policies: the recursion must walk
	// each prefix correctly and stop at the serial attribute.
	cases := []switchsim.Policy{
		// Keep the heaviest flows, oldest first among equals.
		{Keys: []switchsim.SortKey{
			{Attr: switchsim.AttrTraffic, HighIsBetter: true},
			{Attr: switchsim.AttrInsertion, HighIsBetter: false},
		}},
		// Keep the lowest-priority flows (an inverted-priority oddball),
		// most recent among equals.
		{Keys: []switchsim.SortKey{
			{Attr: switchsim.AttrPriority, HighIsBetter: false},
			{Attr: switchsim.AttrUseTime, HighIsBetter: true},
		}},
	}
	for i, want := range cases {
		e, _ := engineFor(switchsim.TestSwitch(80, want))
		res, err := ProbePolicy(e, PolicyOptions{CacheSize: 80, Seed: int64(10 + i)})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !res.Policy.Equal(want) {
			t.Errorf("case %d: inferred %v, want %v (rounds %+v)", i, res.Policy, want, res.Rounds)
		}
	}
}
