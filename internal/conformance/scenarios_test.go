package conformance

import (
	"reflect"
	"testing"
	"time"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
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

// TestChurnRateZeroDifferential is the no-observer-effect gate: inference
// through a background wrapper whose churn schedule is empty must be
// byte-identical to inference on the bare device. Two layers are pinned:
// the generator contract (rate 0 → nil driver → WrapBackground returns the
// device unchanged) and the wrapper itself (an active wrapper with zero
// events resolves the exact same device fast paths, so size and policy
// results stay deeply equal).
func TestChurnRateZeroDifferential(t *testing.T) {
	if NewChurnDriver(workload.Churn(workload.ChurnOptions{Rate: 0})) != nil {
		t.Fatal("rate-0 churn schedule must produce a nil driver")
	}

	const seed = 411
	run := func(wrap bool) (*infer.SizeResult, *infer.PolicyResult) {
		t.Helper()
		p := switchsim.TestSwitch(64, switchsim.PolicyLRU)
		p.Name = "diff-churn0"
		sw := switchsim.New(p, switchsim.WithSeed(seed))
		var dev probe.Device = probe.SimDevice{S: sw}
		if wrap {
			// An explicitly constructed empty driver: the wrapper is live
			// (every op steps it) but no event ever applies.
			dev = WrapBackground(dev, &ChurnDriver{})
		}
		e := probe.NewEngine(dev)
		sres, err := infer.ProbeSizes(e, infer.SizeOptions{Seed: seed + 1, MaxRules: 256})
		if err != nil {
			t.Fatalf("size stage (wrap=%v): %v", wrap, err)
		}
		p2 := switchsim.TestSwitch(64, switchsim.PolicyLRU)
		p2.Name = "diff-churn0"
		sw2 := switchsim.New(p2, switchsim.WithSeed(seed+2))
		var dev2 probe.Device = probe.SimDevice{S: sw2}
		if wrap {
			dev2 = WrapBackground(dev2, &ChurnDriver{})
		}
		pres, err := infer.ProbePolicy(probe.NewEngine(dev2), infer.PolicyOptions{CacheSize: 64, Seed: seed + 3})
		if err != nil {
			t.Fatalf("policy stage (wrap=%v): %v", wrap, err)
		}
		return sres, pres
	}

	bareSize, barePol := run(false)
	wrapSize, wrapPol := run(true)
	if !reflect.DeepEqual(bareSize, wrapSize) {
		t.Errorf("size inference diverged under empty background wrapper:\n bare: %+v\n wrap: %+v", bareSize, wrapSize)
	}
	if !reflect.DeepEqual(barePol, wrapPol) {
		t.Errorf("policy inference diverged under empty background wrapper:\n bare: %+v\n wrap: %+v", barePol, wrapPol)
	}
}

// TestWrapBackgroundNil pins that a nil Background is the identity.
func TestWrapBackgroundNil(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyLRU))
	dev := probe.SimDevice{S: sw}
	if got := WrapBackground(dev, nil); got != probe.Device(dev) {
		t.Errorf("WrapBackground(dev, nil) = %T, want the device unchanged", got)
	}
}

// TestWrapBackgroundKeepsFastPaths pins that wrapping preserves the optional
// device capabilities the engine probes for — losing one would silently
// change inference behaviour and invalidate the differential above.
func TestWrapBackgroundKeepsFastPaths(t *testing.T) {
	sw := switchsim.New(switchsim.TestSwitch(8, switchsim.PolicyLRU))
	wrapped := WrapBackground(probe.SimDevice{S: sw}, &ChurnDriver{})
	if _, ok := wrapped.(probe.FrameDevice); !ok {
		t.Error("wrapper lost the FrameDevice fast path")
	}
	if _, ok := wrapped.(probe.TrafficSender); !ok {
		t.Error("wrapper lost the TrafficSender fast path")
	}
	if _, ok := wrapped.(probe.LabeledDevice); !ok {
		t.Error("wrapper lost the LabeledDevice capability")
	}
	if _, ok := wrapped.(interface{ Sleep(time.Duration) }); !ok {
		t.Error("wrapper lost the Sleep capability")
	}
}
