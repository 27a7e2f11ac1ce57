package infer_test

import (
	"reflect"
	"slices"
	"testing"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/switchsim"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// sweep returns the GenerateSpecs seeds the stop-rule tests sweep. The
// sweeps run on one goroutine, so under the race detector, which makes them
// twenty times slower, the first seed stands for all five.
func sweep() []int64 {
	seeds := []int64{1, 20140101, 41, 77, 303}
	if raceEnabled {
		return seeds[:1]
	}
	return seeds
}

// sizeSpec runs Algorithm 1 on a fresh switch for spec, with the options
// conformance.RunSpec gives it, under the interval rule or the budget alone.
func sizeSpec(t *testing.T, spec conformance.Spec, budgetOnly bool) infer.SampledRun {
	t.Helper()
	sw := switchsim.New(spec.Profile, switchsim.WithSeed(spec.Seed))
	run, err := infer.ProbeSizesTraced(probe.NewEngine(probe.SimDevice{S: sw}),
		infer.SizeOptions{Seed: spec.Seed + 1, MaxRules: 8 * spec.CacheSize}, budgetOnly)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return run
}

// TestStopRuleAgainstBudget holds the interval stop rule to the budget rule
// it replaced, run as an oracle on the same switch and seeds. The two runs
// share one trajectory up to the first level where the interval was tight
// before the budget was spent, so up to and including that level no level
// spends more probes than the oracle's; a run where the budget ran out
// first on every level is byte-identical; and no run sends more probes in
// all. Level 0 of a policy-cache spec is a quarter of its rules, which the
// budget alone never measures to the interval's precision, so its estimate
// and census — what the conformance check and Algorithm 2 read — never
// move.
func TestStopRuleAgainstBudget(t *testing.T) {
	const n = 48
	identical, shorter := 0, 0
	for _, seed := range sweep() {
		for _, spec := range conformance.GenerateSpecs(n, seed) {
			got, want := sizeSpec(t, spec, false), sizeSpec(t, spec, true)
			if got.ProbesSent > want.ProbesSent {
				t.Errorf("%s (seed %d): %d probes, the budget rule %d", spec.Name, seed, got.ProbesSent, want.ProbesSent)
			}
			for i, tight := range want.TightFirst {
				if got.LevelProbes[i] > want.LevelProbes[i] {
					t.Errorf("%s (seed %d): level %d spent %d probes, the budget rule %d", spec.Name, seed, i, got.LevelProbes[i], want.LevelProbes[i])
				}
				if tight {
					break
				}
			}
			if !slices.Contains(want.TightFirst, true) {
				identical++
				if !reflect.DeepEqual(got.Levels, want.Levels) || got.ProbesSent != want.ProbesSent {
					t.Errorf("%s (seed %d): the budget ran out first, yet\n got %v, %d probes\nwant %v, %d probes",
						spec.Name, seed, got.Levels, got.ProbesSent, want.Levels, want.ProbesSent)
				}
			} else {
				shorter++
			}
			if spec.Profile.Kind == switchsim.ManagePolicyCache {
				if want.TightFirst[0] || got.Levels[0] != want.Levels[0] {
					t.Errorf("%s (seed %d): level 0 moved: got %+v, the budget rule %+v", spec.Name, seed, got.Levels[0], want.Levels[0])
				}
			}
		}
	}
	t.Logf("%d runs identical to the budget rule's, %d stopped sooner", identical, shorter)
}

// TestIntervalCoversTruth runs Algorithm 1 on 510 generated policy-cache
// switches (102 under the race detector) and counts how often each level's
// 95% interval holds the tier's true size: level 0's the cache's, which the
// budget stops, and level 1's the rest of the installed rules, which the
// interval itself usually stops. The share was fixed below the nominal 95%
// before the run: the Wald interval is asymptotic, and an RTT drawn across
// a tier boundary biases the run lengths the interval assumes are clean.
func TestIntervalCoversTruth(t *testing.T) {
	const wantShare = 0.90
	const n = 136 // three in four specs are policy-cache: 510 across five seeds
	var runs, covered [2]int
	for _, seed := range sweep() {
		for _, spec := range conformance.GenerateSpecs(n, seed) {
			if spec.Profile.Kind != switchsim.ManagePolicyCache {
				continue
			}
			res := sizeSpec(t, spec, false)
			if len(res.Levels) != 2 {
				t.Fatalf("%s (seed %d): %d levels, want cache and software", spec.Name, seed, len(res.Levels))
			}
			for i, truth := range []int{spec.CacheSize, res.RulesInstalled - spec.CacheSize} {
				l := res.Levels[i]
				runs[i]++
				if l.Lo <= truth && truth <= l.Hi {
					covered[i]++
				} else {
					t.Logf("%s (seed %d): level %d's [%d, %d] misses %d (estimate %d, census %d)", spec.Name, seed, i, l.Lo, l.Hi, truth, l.Size, l.Census)
				}
			}
		}
	}
	for i := range runs {
		share := float64(covered[i]) / float64(runs[i])
		t.Logf("level %d's interval covered the true size in %d of %d runs (%.1f%%)", i, covered[i], runs[i], 100*share)
		if share < wantShare {
			t.Errorf("level %d: coverage %.3f, want ≥ %.2f", i, share, wantShare)
		}
	}
}
