package conformance

import (
	"reflect"
	"testing"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/switchsim"
	"tango/internal/workload"
)

// TestScenarioGates is the adversarial conformance gate: every catalog
// scenario must produce its pinned verdict. Each scenario is a pure function
// of its seed, so a failure here is a behavioural regression, not noise.
func TestScenarioGates(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario catalog in -short mode")
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res := RunScenario(sc)
			if !res.Pass {
				t.Fatalf("scenario gate failed: %s", res.Verdict)
			}
			t.Logf("%s", res.Verdict)
		})
	}
}

// TestScenarioDeterminism pins bit-for-bit reproducibility: running a
// scenario twice yields identical results, including error text and every
// diagnostic counter. One representative per family keeps the test fast.
func TestScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay in -short mode")
	}
	byName := make(map[string]Scenario)
	for _, sc := range Scenarios() {
		byName[sc.Name] = sc
	}
	for _, name := range []string{"overflow-attack-timing", "churn-size-fifo", "altpolicy-dest-aggregate"} {
		sc, ok := byName[name]
		if !ok {
			t.Fatalf("scenario %q missing from catalog", name)
		}
		a, b := RunScenario(sc), RunScenario(sc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: replay diverged:\n first: %+v\nsecond: %+v", name, a, b)
		}
	}
}

// TestScenarioCatalogShape pins catalog invariants tangobench relies on:
// unique names, known families, and a deterministic failure (not a panic)
// for unknown names.
func TestScenarioCatalogShape(t *testing.T) {
	seen := make(map[string]bool)
	seeds := make(map[int64]string)
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if prev, dup := seeds[sc.Seed]; dup {
			t.Errorf("scenarios %q and %q share seed %d", prev, sc.Name, sc.Seed)
		}
		seeds[sc.Seed] = sc.Name
		switch sc.Family {
		case "overflow", "churn", "altpolicy":
		default:
			t.Errorf("scenario %q has unknown family %q", sc.Name, sc.Family)
		}
	}
	res := RunScenario(Scenario{Name: "no-such-scenario"})
	if res.Pass || res.ErrText == "" {
		t.Errorf("unknown scenario must fail with an error, got %+v", res)
	}
}

// TestWrapperTransparency is the no-observer-effect gate for everything that
// can sit between an engine and the emulator: a device that has nothing to do
// — a live injector that never fires, a background driver with no events, or
// both — and a retry policy that never has to retry must leave the inference, the
// switch (counters and virtual clock) and the engine (op ledger and telemetry
// label) exactly as the bare single-attempt run leaves them. Size inference
// runs on an LRU cache, policy inference — the SendTraffic path — on an LFU,
// and infer.Inspect's whole pipeline on an LFU whose software table is bounded
// (the size phase ends on a rejection, so the census it hands on is exact).
func TestWrapperTransparency(t *testing.T) {
	if NewChurnDriver(workload.Churn(workload.ChurnOptions{Rate: 0})) != nil {
		t.Fatal("rate-0 churn schedule must produce a nil driver")
	}
	quietInj := func() *faults.Injector { return faults.NewInjector(faults.Config{Seed: 1, Drop: 1e-300}) }
	quiet := func(dev probe.SimDevice) probe.Device { return newDevice(dev.S, quietInj(), nil) }
	rows := []struct {
		name  string
		wrap  func(probe.SimDevice) probe.Device
		retry probe.Retry
	}{
		{"bare", func(dev probe.SimDevice) probe.Device { return dev }, probe.Retry{}},
		{"bare+retry", func(dev probe.SimDevice) probe.Device { return dev }, probe.DefaultRetry},
		{"faults", quiet, probe.Retry{}},
		{"faults+retry", quiet, probe.DefaultRetry},
		{"background", func(dev probe.SimDevice) probe.Device { return newDevice(dev.S, nil, &ChurnDriver{}) }, probe.Retry{}},
		{"faults+background", func(dev probe.SimDevice) probe.Device { return newDevice(dev.S, quietInj(), &ChurnDriver{}) }, probe.DefaultRetry},
	}

	// stage is everything one inference leaves behind.
	type stage struct {
		name   string
		result any // *infer.SizeResult, *infer.PolicyResult, *infer.Model
		sw     switchsim.Stats
		now    time.Time
		eng    probe.EngineStats
		label  string
	}
	const seed = 411
	bounded := switchsim.TestSwitch(64, switchsim.PolicyLFU)
	bounded.SoftwareCapacity = 192
	stages := []struct {
		name    string
		profile switchsim.Profile
		infer   func(*probe.Engine) (any, error)
	}{
		{"size", switchsim.TestSwitch(64, switchsim.PolicyLRU), func(e *probe.Engine) (any, error) {
			return infer.ProbeSizes(e, infer.SizeOptions{Seed: seed + 2, MaxRules: 256})
		}},
		{"policy", switchsim.TestSwitch(64, switchsim.PolicyLFU), func(e *probe.Engine) (any, error) {
			return infer.ProbePolicy(e, infer.PolicyOptions{CacheSize: 64, Seed: seed + 3})
		}},
		{"pipeline", bounded, func(e *probe.Engine) (any, error) {
			return infer.Inspect(e, infer.InspectOptions{Name: "whole", Size: infer.SizeOptions{Seed: seed + 4, MaxRules: 512}})
		}},
	}
	run := func(t *testing.T, wrap func(probe.SimDevice) probe.Device, retry probe.Retry) (out []stage) {
		t.Helper()
		for i, sg := range stages {
			p := sg.profile
			p.Name = "transparent"
			sw := switchsim.New(p, switchsim.WithSeed(seed+int64(i)))
			e := probe.NewEngine(wrap(probe.SimDevice{S: sw}))
			e.Retry = retry
			result, err := sg.infer(e)
			if err != nil {
				t.Fatalf("%s stage: %v", sg.name, err)
			}
			out = append(out, stage{sg.name, result, sw.Stats(), sw.Now(), e.Stats(), e.Label()})
		}
		return out
	}

	want := run(t, rows[0].wrap, rows[0].retry)
	if pol := want[1]; want[0].label != "transparent" || pol.sw.PacketsSeen <= uint64(pol.eng.Probes) {
		t.Fatalf("bare run is vacuous: label %q, policy stage sent %d packets for %d probes", want[0].label, pol.sw.PacketsSeen, pol.eng.Probes)
	}
	if m := want[2].result.(*infer.Model); m.Policy == nil || !m.Policy.Policy.Equal(switchsim.PolicyLFU) || m.Costs == nil {
		t.Fatalf("bare pipeline run is vacuous: %s", m)
	}
	for _, row := range rows[1:] {
		t.Run(row.name, func(t *testing.T) {
			for i, got := range run(t, row.wrap, row.retry) {
				for _, f := range []struct {
					what      string
					got, want any
				}{
					{"inferred result", got.result, want[i].result},
					{"switch counters", got.sw, want[i].sw},
					{"switch clock", got.now, want[i].now},
					{"engine ledger", got.eng, want[i].eng},
					{"engine label", got.label, want[i].label},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s stage, %s: got %+v, bare run %+v", got.name, f.what, f.got, f.want)
					}
				}
			}
		})
	}
}
