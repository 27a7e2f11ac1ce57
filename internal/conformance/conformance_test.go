package conformance

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/faults"
	"tango/internal/switchsim"
)

// cleanSeed fixes the randomized profile generation for the regression
// gate; changing it invalidates the accuracy expectations below.
const cleanSeed = 1

// TestGenerateSpecsDeterministic pins generation to (n, seed).
func TestGenerateSpecsDeterministic(t *testing.T) {
	a := GenerateSpecs(24, cleanSeed)
	b := GenerateSpecs(24, cleanSeed)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateSpecs is not a pure function of (n, seed)")
	}
	if len(a) != 24 {
		t.Fatalf("got %d specs, want 24", len(a))
	}
	var tcamOnly, cache int
	for _, s := range a {
		switch s.Profile.Kind {
		case switchsim.ManageTCAMOnly:
			tcamOnly++
			if len(s.Policy.Keys) != 0 {
				t.Errorf("%s: TCAM-only spec carries a policy", s.Name)
			}
		case switchsim.ManagePolicyCache:
			cache++
			last := s.Policy.Keys[len(s.Policy.Keys)-1]
			if last.Attr != switchsim.AttrInsertion && last.Attr != switchsim.AttrUseTime {
				t.Errorf("%s: policy %v does not end in a serial attribute", s.Name, s.Policy)
			}
		}
	}
	if tcamOnly == 0 || cache == 0 {
		t.Fatalf("want a mix of kinds, got tcam=%d cache=%d", tcamOnly, cache)
	}
}

// TestCleanChannelAccuracy is the headline regression gate: with no faults,
// ≥20 randomized profiles recover sizes within 10% and policies exactly.
func TestCleanChannelAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance sweep is slow")
	}
	specs := GenerateSpecs(24, cleanSeed)
	results := Run(specs, Options{})
	sum := Summarize(results)
	t.Logf("summary: %s", sum)
	for _, r := range results {
		t.Logf("  %s", r)
		if r.Err != nil {
			t.Errorf("%s: pipeline failed on a clean channel: %v", r.Spec.Name, r.Err)
			continue
		}
		if !r.SizeOK {
			t.Errorf("%s: size error %.1f%% exceeds 10%% (est %d, true %d)",
				r.Spec.Name, 100*r.SizeError, r.SizeEstimate, r.Spec.CacheSize)
		}
		if r.PolicyChecked && !r.PolicyOK {
			t.Errorf("%s: policy %v inferred as %v", r.Spec.Name, r.Spec.Policy, r.InferredPolicy)
		}
	}
}

// TestWholePipelineRandomized is the randomized whole-pipeline gate: 40 draws
// of 24 specs, every one taken through infer.Inspect on one switch — size,
// clear, microflow, policy, costs. No spec may fail, every policy cache must
// be recovered exactly on the switch the size phase just filled and cleared
// (the differential that let the two-switch stage runner be deleted rather
// than kept beside this one), and every size must land within tolerance.
func TestWholePipelineRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("960-spec sweep is slow")
	}
	specs, policies := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, r := range Run(GenerateSpecs(24, seed), Options{}) {
			specs++
			if r.Err != nil {
				t.Errorf("seed %d: %s", seed, r)
				continue
			}
			if r.PolicyChecked {
				policies++
				if !r.PolicyOK {
					t.Errorf("seed %d: %s", seed, r)
				}
			}
			if !r.SizeOK {
				t.Errorf("seed %d: %s", seed, r)
			}
		}
	}
	if specs != 960 || policies != 720 {
		t.Fatalf("ran %d specs, %d policy caches; want 960 and 720", specs, policies)
	}
}

// TestEachFaultKindConverges runs a subset of specs under each fault kind
// at a fixed seed: the pipeline must either converge or fail with a typed
// fault error — never hang, panic, or fail organically.
func TestEachFaultKindConverges(t *testing.T) {
	specs := GenerateSpecs(6, cleanSeed)
	kinds := []struct {
		name string
		cfg  faults.Config
	}{
		{"drop", faults.Config{Seed: 11, Drop: 0.02}},
		{"delay", faults.Config{Seed: 12, Delay: 0.05}},
		{"duplicate", faults.Config{Seed: 13, Duplicate: 0.02}},
		{"reorder", faults.Config{Seed: 14, Reorder: 0.02}},
		{"reset", faults.Config{Seed: 15, Reset: 0.0005}},
		{"overflow", faults.Config{Seed: 16, Overflow: 0.01}},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			results := Run(specs, Options{Faults: k.cfg})
			sum := Summarize(results)
			t.Logf("%s: %s", k.name, sum)
			if sum.OrganicFails > 0 {
				for _, r := range results {
					if r.Err != nil && !r.FaultTyped {
						t.Errorf("%s: untyped failure under %s faults: %v", r.Spec.Name, k.name, r.Err)
					}
				}
			}
			if sum.Converged == 0 && sum.TypedFaults == 0 {
				t.Fatalf("no result at all under %s faults", k.name)
			}
		})
	}
}

// TestFaultRunDeterministic asserts the whole suite replays bit-for-bit
// from its seeds, faults included.
func TestFaultRunDeterministic(t *testing.T) {
	specs := GenerateSpecs(4, cleanSeed)
	opts := Options{Faults: faults.Config{Seed: 7, Drop: 0.02, Delay: 0.03, Duplicate: 0.01}}
	a := Run(specs, opts)
	b := Run(specs, opts)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("run %d diverged:\n  first:  %s\n  second: %s", i, a[i], b[i])
		}
	}
}

// TestFaultGolden pins the fault path the way the root package's
// TestInspectGolden pins the clean one: Result.String() of twelve specs under
// eight fault mixes, 96 rows, recorded on the commit before faults.Device and
// the engine's retry loop were rewritten around one send path (PR 20's
// parent). A change to either must reproduce every row, or say which fault
// kind's semantics it moved and re-record testdata/fault_golden.txt.
func TestFaultGolden(t *testing.T) {
	mixes := []faults.Config{
		{Seed: 7, Drop: .02, Delay: .03, Duplicate: .01},
		{Seed: 11, Drop: .02},
		{Seed: 12, Delay: .05},
		{Seed: 13, Duplicate: .02},
		{Seed: 14, Reorder: .02},
		{Seed: 15, Reset: .0005},
		{Seed: 16, Overflow: .01},
		{Seed: 21, Drop: .01, Delay: .02, Duplicate: .01, Reorder: .01, Overflow: .005},
	}
	specs := GenerateSpecs(12, 20140101)
	var got []string
	for _, cfg := range mixes {
		got = append(got, "# "+cfg.String())
		for _, r := range Run(specs, Options{Faults: cfg}) {
			got = append(got, r.String())
		}
	}
	data, err := os.ReadFile("testdata/fault_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	mix := ""
	for i := range want {
		if strings.HasPrefix(want[i], "#") {
			mix = want[i]
		}
		if got[i] != want[i] {
			t.Errorf("%s:\n got %s\nwant %s", mix, got[i], want[i])
		}
	}
}

// TestRetryDisabledSurfacesTypedErrors checks the fail-cleanly path: on a
// single-attempt engine (the zero Retry), injected drops must surface as
// typed fault errors rather than hangs or organic failures.
func TestRetryDisabledSurfacesTypedErrors(t *testing.T) {
	failed := 0
	for _, spec := range GenerateSpecs(2, cleanSeed) {
		inj := faults.NewInjector(faults.Config{Seed: 3, Drop: 0.2})
		sw := switchsim.New(spec.Profile, switchsim.WithSeed(spec.Seed))
		e := probe.NewEngine(faults.WrapDevice(probe.SimDevice{S: sw}, inj))
		_, err := infer.Inspect(e, infer.InspectOptions{
			Name: spec.Name,
			Size: infer.SizeOptions{Seed: spec.Seed + 1, MaxRules: 8 * spec.CacheSize},
		})
		if err == nil {
			continue // survived by luck of the draw
		}
		failed++
		if !faultTyped(err) {
			t.Errorf("%s: error not typed: %v", spec.Name, err)
		}
		if !errors.Is(err, faults.ErrInjected) && !errors.Is(err, probe.ErrExhausted) {
			t.Errorf("%s: error chain lost the fault: %v", spec.Name, err)
		}
	}
	if failed == 0 {
		t.Fatal("no spec failed under 20% drops with one attempt")
	}
}
