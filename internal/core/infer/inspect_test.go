package infer

import (
	"errors"
	"reflect"
	"testing"

	"tango/internal/switchsim"
)

// TestCacheInFront holds Inspect's policy-phase precondition alone: Algorithm 2
// installs 2 × cache rules, so a fastest tier that is more than half of a
// table the switch itself declared full is the table, not a cache.
func TestCacheInFront(t *testing.T) {
	tiers := func(census ...int) []LevelEstimate {
		var ls []LevelEstimate
		for _, c := range census {
			ls = append(ls, LevelEstimate{Size: c, Census: c})
		}
		return ls
	}
	for _, tc := range []struct {
		name string
		res  SizeResult
		want bool
	}{
		{"one tier", SizeResult{Levels: tiers(97), RulesInstalled: 97, CacheFull: true}, false},
		{"phantom tier behind a full TCAM", SizeResult{Levels: tiers(94, 2), RulesInstalled: 97, CacheFull: true}, false},
		{"one delayed probe behind a full TCAM", SizeResult{Levels: tiers(166, 1), RulesInstalled: 167, CacheFull: true}, false},
		{"48-entry cache in front of 144", SizeResult{Levels: tiers(48, 144), RulesInstalled: 192, CacheFull: true}, true},
		{"cache exactly half the table", SizeResult{Levels: tiers(64, 64), RulesInstalled: 128, CacheFull: true}, true},
		{"budget stopped the doubling", SizeResult{Levels: tiers(200, 56), RulesInstalled: 256}, true},
	} {
		if got := cacheInFront(&tc.res); got != tc.want {
			t.Errorf("%s: cacheInFront = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestInspectCapsCostSamples holds the cost-phase precondition: a table that
// rejected at 64 rules cannot hold MeasureCosts' 128 default samples, so the
// default is capped at what the size phase measured — the run is the one an
// explicit Samples: 64 produces, down to the switch's counters.
func TestInspectCapsCostSamples(t *testing.T) {
	p := switchsim.TestSwitch(64, switchsim.Policy{})
	p.Kind = switchsim.ManageTCAMOnly
	p.SoftwareCapacity = 0
	run := func(cost CostOptions) (*Model, switchsim.Stats) {
		t.Helper()
		e, sw := engineFor(p, switchsim.WithSeed(3))
		m, err := Inspect(e, InspectOptions{Name: "tcam-64", Size: SizeOptions{Seed: 4}, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return m, sw.Stats()
	}
	m, stats := run(CostOptions{})
	if m.Sizes.RulesInstalled != 64 || !m.Sizes.CacheFull || m.Policy != nil || m.Costs == nil || m.Costs.Mod <= 0 {
		t.Fatalf("model = %s", m)
	}
	if want, wantStats := run(CostOptions{Samples: 64}); !reflect.DeepEqual(m, want) || stats != wantStats {
		t.Errorf("default samples: %s, %+v\nSamples: 64:     %s, %+v", m, stats, want, wantStats)
	}
}

// TestInspectPhaseError: a failure names its phase and keeps its cause.
func TestInspectPhaseError(t *testing.T) {
	e, _ := engineFor(switchsim.TestSwitch(64, switchsim.PolicyLRU))
	_, err := Inspect(e, InspectOptions{Size: SizeOptions{MaxRules: -1}})
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != "size" || !errors.Is(err, ErrNoRules) {
		t.Fatalf("err = %v, want a size-phase PhaseError wrapping ErrNoRules", err)
	}
	if got, want := err.Error(), "size stage: "+ErrNoRules.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}
