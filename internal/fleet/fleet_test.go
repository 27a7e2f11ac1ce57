package fleet

import (
	"reflect"
	"testing"
	"time"

	"tango/internal/telemetry"
)

// testOptions is a small, fast fleet configuration. Every test builds on it
// so the determinism knobs stay in one place.
func testOptions(seed int64) Options {
	return Options{
		Switches: 12,
		Rounds:   2,
		Seed:     seed,
		MaxRules: 512,
		Registry: telemetry.NewRegistry(),
		Flight:   telemetry.NewFlightRecorder(64),
	}
}

// TestFleetShardedDifferential is the PR's core determinism gate: a
// simulation-only fleet folded at 1 worker and at N workers must produce
// byte-identical results (modulo the wall-derived fields) across multiple
// seeds. Run under -race in CI.
func TestFleetShardedDifferential(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		o := testOptions(seed)
		o.Workers = 1
		base, err := Run(o)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		if base.Inferences == 0 {
			t.Fatalf("seed %d: serial run inferred nothing", seed)
		}
		for _, workers := range []int{4, 7} {
			o := testOptions(seed)
			o.Workers = workers
			got, err := Run(o)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !reflect.DeepEqual(base.Deterministic(), got.Deterministic()) {
				t.Errorf("seed %d: workers=%d result differs from serial\nserial: %+v\nsharded: %+v",
					seed, workers, base.Deterministic(), got.Deterministic())
			}
		}
	}
}

// TestFleetRunAccounting checks the fold's ledger arithmetic on a small
// run: every member completes every round, inference succeeds everywhere,
// per-switch summaries add up to the fleet totals, and the sentinel RTT
// distribution is populated.
func TestFleetRunAccounting(t *testing.T) {
	o := testOptions(11)
	reg := o.Registry
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != o.Switches || res.TCPSwitches != 0 {
		t.Fatalf("members = %d sim + %d tcp, want %d + 0", res.Switches, res.TCPSwitches, o.Switches)
	}
	if res.InferErrs != 0 {
		t.Fatalf("inference errors: %d (of %d inferences)", res.InferErrs, res.Inferences)
	}
	if res.Inferences != o.Switches*o.Rounds {
		t.Fatalf("inferences = %d, want %d", res.Inferences, o.Switches*o.Rounds)
	}
	if res.RTTSamples == 0 || res.P99ProbeRTT <= 0 || res.P50ProbeRTT > res.P99ProbeRTT {
		t.Fatalf("rtt distribution: samples=%d p50=%v p99=%v", res.RTTSamples, res.P50ProbeRTT, res.P99ProbeRTT)
	}
	var fm, probes int64
	for _, s := range res.PerSwitch {
		if s.Rounds != o.Rounds {
			t.Fatalf("%s: rounds = %d, want %d", s.Name, s.Rounds, o.Rounds)
		}
		// TCAM-only profiles (every 4th spec) cluster to one layer; the
		// policy-cache hierarchies to two or more.
		if s.Levels < 1 || s.CacheSize <= 0 {
			t.Fatalf("%s: levels=%d cacheSize=%d, want a layered inference", s.Name, s.Levels, s.CacheSize)
		}
		fm += s.FlowMods
		probes += s.Probes
	}
	if fm != res.FlowMods || probes != res.Probes {
		t.Fatalf("per-switch sums (%d fm, %d probes) != totals (%d, %d)", fm, probes, res.FlowMods, res.Probes)
	}
	if res.FlowMods == 0 || res.Probes == 0 {
		t.Fatal("no ops recorded")
	}
	// Cost fitting ran on round 0 for every member and filled the vec'd
	// fleet metrics.
	if res.ScoreCards != o.Switches {
		t.Fatalf("score cards = %d, want %d", res.ScoreCards, o.Switches)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet.inferences"]; got != int64(res.Inferences) {
		t.Fatalf("fleet.inferences = %d, want %d", got, res.Inferences)
	}
	child := telemetry.ChildName("fleet.rounds", "switch", "sim-000")
	if got := snap.Counters[child]; got != int64(o.Rounds) {
		t.Fatalf("%s = %d, want %d", child, got, o.Rounds)
	}
	if h, ok := snap.Histograms["fleet.probe_rtt_ns"]; !ok || h.Count != int64(res.RTTSamples) {
		t.Fatalf("fleet.probe_rtt_ns: present=%v %+v, want count %d", ok, h, res.RTTSamples)
	}
}

// TestFleetInflightGate bounds concurrency without changing results: a
// MaxInflight of 1 under many workers must still match the unbounded run.
func TestFleetInflightGate(t *testing.T) {
	o := testOptions(5)
	o.Workers = 6
	base, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o = testOptions(5)
	o.Workers = 6
	o.MaxInflight = 1
	gated, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Deterministic(), gated.Deterministic()) {
		t.Fatal("MaxInflight changed deterministic results")
	}
}

// TestFleetServiceStartStop runs the continuous service for a few rounds
// and stops it: the fold must reflect the completed rounds, carry rates,
// and Stop must be idempotent.
func TestFleetServiceStartStop(t *testing.T) {
	o := testOptions(23)
	o.Switches = 4
	s, err := Start(o)
	if err != nil {
		t.Fatal(err)
	}
	if s.Members() != 4 {
		t.Fatalf("members = %d, want 4", s.Members())
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Rounds() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("service made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := s.Stop()
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want >= 2", res.Rounds)
	}
	if res.InferErrs != 0 {
		t.Fatalf("inference errors: %d", res.InferErrs)
	}
	if res.Inferences < 4*2 {
		t.Fatalf("inferences = %d, want >= 8", res.Inferences)
	}
	if res.Wall <= 0 || res.SwitchesPerSec <= 0 || res.FlowModsPerSec <= 0 {
		t.Fatalf("rates missing: wall=%v sw/s=%v fm/s=%v", res.Wall, res.SwitchesPerSec, res.FlowModsPerSec)
	}
	if again := s.Stop(); again != res {
		t.Fatal("second Stop returned a different result")
	}
	// The live progress gauges track the loop while it runs; after Stop
	// they hold the final round's cumulative values.
	snap := o.Registry.Snapshot()
	if got := snap.Gauges["fleet.rounds_completed"]; got != int64(res.Rounds) {
		t.Fatalf("fleet.rounds_completed = %d, want %d", got, res.Rounds)
	}
	if got := snap.Gauges["fleet.inferences_live"]; got != int64(res.Inferences) {
		t.Fatalf("fleet.inferences_live = %d, want %d", got, res.Inferences)
	}
	// The service's score DB holds every member's card (costEvery = 2 hits
	// round 0).
	for _, sum := range res.PerSwitch {
		if _, ok := s.Scores().Score(sum.Name); !ok {
			t.Fatalf("no score card for %s", sum.Name)
		}
	}
}

// TestServiceBoundsRTTWindow runs the service past the RTT window: each
// member keeps at most its last rttWindow sentinel RTTs, and the fold's
// sample count and fleet.probe_rtt_ns agree on what was kept.
func TestServiceBoundsRTTWindow(t *testing.T) {
	o := testOptions(29)
	o.Switches = 2
	o.MaxRules = 256
	s, err := Start(o)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Rounds() <= rttWindow/sentinelProbes {
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("service finished %d rounds, want more than %d", s.Rounds(), rttWindow/sentinelProbes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res := s.Stop()
	if res.InferErrs != 0 {
		t.Fatalf("inference errors: %d", res.InferErrs)
	}
	if want := o.Switches * rttWindow; res.RTTSamples != want {
		t.Fatalf("kept %d RTT samples after %d rounds, want the window's %d", res.RTTSamples, res.Rounds, want)
	}
	if h := o.Registry.Snapshot().Histograms["fleet.probe_rtt_ns"]; h.Count != int64(res.RTTSamples) {
		t.Fatalf("fleet.probe_rtt_ns count %d, want %d", h.Count, res.RTTSamples)
	}
}
