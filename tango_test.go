package tango

import (
	"strings"
	"testing"

	"tango/internal/conformance"
	"tango/internal/core/pattern"
	"tango/internal/switchsim"
)

func TestInspectPolicyCacheSwitch(t *testing.T) {
	p := switchsim.TestSwitch(200, PolicyLRU)
	p.SoftwareCapacity = 600
	sw := NewEmulatedSwitch(p, switchsim.WithSeed(5))
	m, err := Inspect(EngineFor(sw).Device(), InspectOptions{Name: "dev"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Sizes.Levels) != 2 {
		t.Fatalf("levels = %v", m.Sizes)
	}
	if e := relErr(m.Sizes.Levels[0].Size, 200); e > 0.05 {
		t.Fatalf("size estimate %d (err %.1f%%)", m.Sizes.Levels[0].Size, e*100)
	}
	if m.Microflow {
		t.Fatal("policy-cache switch misdetected as microflow")
	}
	if m.Policy == nil || !m.Policy.Policy.Equal(PolicyLRU) {
		t.Fatalf("policy = %+v, want LRU", m.Policy)
	}
	if m.Costs == nil || m.Costs.Mod <= 0 {
		t.Fatalf("costs = %+v", m.Costs)
	}
	if len(m.Costs.PathLatency) != 2 {
		t.Fatalf("path latencies = %v", m.Costs.PathLatency)
	}
	if s := m.String(); !strings.Contains(s, "policy=") {
		t.Fatalf("model string: %s", s)
	}
}

func TestInspectOVS(t *testing.T) {
	sw := NewEmulatedSwitch(ProfileOVS())
	m, err := Inspect(EngineFor(sw).Device(), InspectOptions{Name: "ovs", MaxRules: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Microflow {
		t.Fatal("OVS not detected as microflow")
	}
	if m.Policy != nil {
		t.Fatal("policy probe should be skipped for microflow switches")
	}
	if !strings.Contains(m.String(), "microflow") {
		t.Fatalf("model string: %s", m.String())
	}
}

func TestInspectTCAMOnly(t *testing.T) {
	sw := NewEmulatedSwitch(ProfileSwitch2().WithTCAMCapacity(700), switchsim.WithSeed(2))
	m, err := Inspect(EngineFor(sw).Device(), InspectOptions{Name: "s2"})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Sizes.CacheFull {
		t.Fatal("TCAM-only switch should reject during doubling")
	}
	if m.Sizes.Levels[0].Size != 700 {
		t.Fatalf("size = %d, want 700", m.Sizes.Levels[0].Size)
	}
}

// TestInspectSmallTCAMOnly pins two generated TCAM-only specs the pipeline
// used to fail on. conf-07-tcam-64 holds fewer rules than cost fitting's 128
// default samples ("cost fitting: … all tables full"); conf-11-tcam-97's
// noise splits into tiers [94, 2] and Algorithm 2 was sent to probe a
// 94-entry "cache" in a 97-entry table ("policy probing: … policy probe
// install 97: … all tables full"). infer.Inspect sizes both phases from the
// capacity the size phase measured.
func TestInspectSmallTCAMOnly(t *testing.T) {
	for _, spec := range []conformance.Spec{
		conformance.GenerateSpecs(24, 9)[7],
		conformance.GenerateSpecs(24, 26)[11],
	} {
		sw := NewEmulatedSwitch(spec.Profile, switchsim.WithSeed(spec.Seed))
		m, err := Inspect(EngineFor(sw).Device(), InspectOptions{
			Name: spec.Name, Seed: spec.Seed + 1, MaxRules: 8 * spec.CacheSize,
		})
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if m.Policy != nil || m.Costs == nil {
			t.Errorf("%s: want no policy and a score card, got %s", spec.Name, m)
		}
		if e := relErr(m.Sizes.Levels[0].Size, spec.CacheSize); e > 0.10 {
			t.Errorf("%s: fastest tier %d, truth %d", spec.Name, m.Sizes.Levels[0].Size, spec.CacheSize)
		}
	}
}

func TestScheduleFacade(t *testing.T) {
	g := NewRequestGraph()
	for i := 0; i < 20; i++ {
		g.AddNode(&Request{
			Switch: "sw", Op: pattern.OpAdd,
			FlowID: uint32(i), Priority: uint16(2000 - i), HasPriority: true,
		})
	}
	db := NewDB()
	db.PutScore(&ScoreCard{
		SwitchName:      "sw",
		AddSamePriority: 1, AddNewPriority: 2, ShiftPerEntry: 1, Mod: 1, Del: 1,
	})
	engines := map[string]*Engine{"sw": EngineFor(NewEmulatedSwitch(ProfileSwitch1()))}
	dTango, err := Schedule(g, TangoScheduler(db), engines)
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewRequestGraph()
	for i := 0; i < 20; i++ {
		g2.AddNode(&Request{
			Switch: "sw", Op: pattern.OpAdd,
			FlowID: uint32(100 + i), Priority: uint16(2000 - i), HasPriority: true,
		})
	}
	engines2 := map[string]*Engine{"sw": EngineFor(NewEmulatedSwitch(ProfileSwitch1()))}
	dDio, err := Schedule(g2, DionysusScheduler(), engines2)
	if err != nil {
		t.Fatal(err)
	}
	if dTango > dDio {
		t.Fatalf("tango %v slower than dionysus %v on descending adds", dTango, dDio)
	}
}

func TestEnforcePrioritiesFacade(t *testing.T) {
	g := NewRequestGraph()
	a := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 1})
	b := g.AddNode(&Request{Switch: "s", Op: pattern.OpAdd, FlowID: 2})
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	EnforcePriorities(g, 50)
	if g.Payload(a).Priority != 50 || g.Payload(b).Priority != 51 {
		t.Fatalf("priorities: %d, %d", g.Payload(a).Priority, g.Payload(b).Priority)
	}
}

func relErr(est, actual int) float64 {
	d := est - actual
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(actual)
}
