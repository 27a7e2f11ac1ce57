package main

import (
	"io"
	"regexp"
	"testing"
)

// The smoke test runs every workload for a fifth of a second and holds the
// result against the contract in BENCHMARK.json: every metric named there is
// emitted with its unit, nothing else is, and every correctness check passes.

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, got map[string]metricValue, want []specMetric) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		case !finite(v.Value):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for name := range got {
			if !names[name] {
				t.Errorf("metric %s is emitted but not in BENCHMARK.json", name)
			}
		}
	}
}

func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json names the workloads the driver gates on; the catalog
	// may hold more (see README, "Workloads").
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q of BENCHMARK.json is not in the catalog", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	same := func(kind string, defs []metricDef, ms []specMetric) {
		if len(defs) != len(ms) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(ms))
			return
		}
		for i, d := range defs {
			if d.name != ms[i].Name || d.unit != ms[i].Unit {
				t.Errorf("%s metric %d: code has %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, ms[i].Name, ms[i].Unit)
			}
		}
	}
	same("end_to_end", endToEndDefs, spec.EndToEnd)
	same("per_layer", perLayerDefs, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 7, seconds: 0.2, out: t.TempDir()}
	for _, d := range catalog {
		res, err := run(io.Discard, d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d ops failed", d.name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, res.Metrics, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v; end-to-end metrics are never zero", d.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
	}
}

// One traced run covers every per-layer metric: the layer probes do not
// depend on the workload.
func TestSmokeTraced(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := findWorkload("update_b4")
	res, err := run(io.Discard, d, config{seed: 7, seconds: 0.2, trace: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run: %d of %d ops or probes failed", res.Failed, res.Attempted)
	}
	checkMetrics(t, res.Metrics, spec.PerLayer)
}
