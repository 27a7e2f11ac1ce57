package infer_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"tango/internal/conformance"
	"tango/internal/core/infer"
	"tango/internal/core/probe"
	"tango/internal/openflow"
	"tango/internal/switchsim"
)

// inspection is what one inspection leaves: the model, and what the switch
// saw of it.
type inspection struct {
	model *infer.Model
	stats switchsim.Stats
	now   time.Time
}

// failAfter fails every flow-mod after its first n.
type failAfter struct {
	probe.SimDevice
	n int
}

var errBroken = errors.New("channel broken")

func (d *failAfter) FlowMod(fm *openflow.FlowMod) error {
	if d.n == 0 {
		return errBroken
	}
	d.n--
	return d.SimDevice.FlowMod(fm)
}

// countFlowMods counts the flow-mods an inspection of p sends.
type countFlowMods struct {
	probe.SimDevice
	n int
}

func (d *countFlowMods) FlowMod(fm *openflow.FlowMod) error {
	d.n++
	return d.SimDevice.FlowMod(fm)
}

func reuseOptions(p switchsim.Profile) infer.InspectOptions {
	return infer.InspectOptions{Name: p.Name, Size: infer.SizeOptions{Seed: 1, MaxRules: 4096}}
}

func inspect(t *testing.T, p switchsim.Profile) inspection {
	t.Helper()
	sw := switchsim.New(p, switchsim.WithSeed(1))
	m, err := infer.Inspect(probe.NewEngine(probe.SimDevice{S: sw}), reuseOptions(p))
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return inspection{m, sw.Stats(), sw.Now()}
}

func sameInspection(t *testing.T, what string, got, want inspection) {
	t.Helper()
	if !reflect.DeepEqual(got.model, want.model) {
		t.Errorf("%s: model\n got %s %+v\nwant %s %+v", what, got.model, got.model.Sizes.Clusters, want.model, want.model.Sizes.Clusters)
	}
	if got.stats != want.stats {
		t.Errorf("%s: switch stats %+v, want %+v", what, got.stats, want.stats)
	}
	if !got.now.Equal(want.now) {
		t.Errorf("%s: virtual time %v, want %v", what, got.now, want.now)
	}
}

// reuseProfiles are a three-tier switch at the full budget, a 53-entry
// policy cache and OVS: the kept buffers shrink in use, then grow again.
func reuseProfiles(t *testing.T) []switchsim.Profile {
	ps := []switchsim.Profile{switchsim.Switch1()}
	for _, s := range conformance.GenerateSpecs(14, 1) {
		if s.Profile.Name == "conf-02-cache-53" {
			ps = append(ps, s.Profile)
		}
	}
	if len(ps) != 2 {
		t.Fatal("no 53-entry spec in the generated catalog")
	}
	return append(ps, switchsim.OVS())
}

// TestInspectScratchReuse holds the phases' kept working memory (DESIGN
// §14.1) to inspections that each start from a struct of their own: the
// same models, switch counters and virtual time. Run it -race -count=3.
func TestInspectScratchReuse(t *testing.T) {
	profiles := reuseProfiles(t)
	fresh := make([]inspection, len(profiles))
	for i, p := range profiles {
		infer.DrainScratch()
		fresh[i] = inspect(t, p)
	}

	// One after another with the list warm. The first model lives through
	// two later inspections that reuse its phases' buffers: a model that
	// aliased them (SizeResult.Clusters, a finder's tiers) would change.
	t.Run("warm", func(t *testing.T) {
		inspect(t, profiles[0])
		warm := make([]inspection, len(profiles))
		for i, p := range profiles {
			warm[i] = inspect(t, p)
		}
		for i, p := range profiles {
			sameInspection(t, p.Name, warm[i], fresh[i])
		}
	})

	// A policy phase that fails mid-round hands back its struct with a
	// block half initialised and an attribute perhaps fixed.
	t.Run("after a failure", func(t *testing.T) {
		p := profiles[1]
		count := func(skip infer.Phases) int {
			dev := &countFlowMods{SimDevice: probe.SimDevice{S: switchsim.New(p, switchsim.WithSeed(1))}}
			opts := reuseOptions(p)
			opts.Skip = skip
			if _, err := infer.Inspect(probe.NewEngine(dev), opts); err != nil {
				t.Fatal(err)
			}
			return dev.n
		}
		before, through := count(infer.PhasePolicy|infer.PhaseCosts), count(infer.PhaseCosts)
		dev := &failAfter{SimDevice: probe.SimDevice{S: switchsim.New(p, switchsim.WithSeed(1))}, n: (before + through) / 2}
		_, err := infer.Inspect(probe.NewEngine(dev), reuseOptions(p))
		var pe *infer.PhaseError
		if !errors.As(err, &pe) || pe.Phase != "policy" {
			t.Fatalf("err = %v, want a policy-phase failure", err)
		}
		for i, p := range profiles {
			sameInspection(t, p.Name, inspect(t, p), fresh[i])
		}
	})

	// Inspections that overlap: one finds the list empty and makes its own.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		got := make([]inspection, 2)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw := switchsim.New(profiles[i], switchsim.WithSeed(1))
				m, err := infer.Inspect(probe.NewEngine(probe.SimDevice{S: sw}), reuseOptions(profiles[i]))
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = inspection{m, sw.Stats(), sw.Now()}
			}()
		}
		wg.Wait()
		for i := range got {
			if got[i].model != nil {
				sameInspection(t, profiles[i].Name, got[i], fresh[i])
			}
		}
	})

	// A size probe of more rules than Inspect's default budget grows the
	// buffers past what the list keeps.
	t.Run("above the default budget", func(t *testing.T) {
		const rules = 20000
		p := switchsim.TestSwitch(rules, switchsim.Policy{})
		p.Kind = switchsim.ManageTCAMOnly
		p.SoftwareCapacity = 0
		sw := switchsim.New(p, switchsim.WithSeed(1))
		m, err := infer.Inspect(probe.NewEngine(probe.SimDevice{S: sw}),
			infer.InspectOptions{Size: infer.SizeOptions{Seed: 1, MaxRules: rules}})
		if err != nil {
			t.Fatal(err)
		}
		if m.Sizes.RulesInstalled != rules {
			t.Fatalf("installed %d rules, want %d", m.Sizes.RulesInstalled, rules)
		}
		if err := infer.KeptScratchWithin(16384); err != nil {
			t.Error(err)
		}
	})
}
