package scale

import (
	"reflect"
	"testing"
	"time"

	"tango/internal/telemetry"
)

// smallOpts is a scaled-down scenario that still exercises every phase
// kind: setup storm, TE rounds, the failure/restore storm, churn, probes,
// and inference.
func smallOpts(seed int64, shards int) Options {
	return Options{
		Flows:          30000,
		Shards:         shards,
		Epochs:         8,
		EventsPerEpoch: 256,
		ProbesPerEpoch: 32,
		TEEvery:        4,
		MaxMoves:       8,
		FailEpoch:      4,
		InferMaxRules:  256,
		ChurnRate:      50,
		ChurnFlows:     512,
		ChurnDuration:  30 * time.Minute,
		Seed:           seed,
		Flight:         telemetry.NewFlightRecorder(64),
		Registry:       telemetry.NewRegistry(),
	}
}

func TestScaleHarnessSmall(t *testing.T) {
	o := smallOpts(1, 0)
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites != 12 || res.Shards != 12 {
		t.Fatalf("sites/shards = %d/%d", res.Sites, res.Shards)
	}
	if res.FlowsResident < o.Flows {
		t.Fatalf("FlowsResident = %d, want >= %d", res.FlowsResident, o.Flows)
	}
	if res.FlowsDistinct == 0 || res.FlowsDistinct > res.FlowsResident {
		t.Fatalf("FlowsDistinct = %d (resident %d)", res.FlowsDistinct, res.FlowsResident)
	}
	if res.Events == 0 || res.RuleOps == 0 {
		t.Fatalf("events/ruleOps = %d/%d", res.Events, res.RuleOps)
	}
	if res.ProbeSamples == 0 || res.P50ProbeRTT <= 0 || res.P99ProbeRTT < res.P50ProbeRTT {
		t.Fatalf("probes = %d, p50 = %v, p99 = %v", res.ProbeSamples, res.P50ProbeRTT, res.P99ProbeRTT)
	}
	if res.PairMoves == 0 {
		t.Fatal("no pair migrations — TE and storm phases were no-ops")
	}
	if res.ChurnApplied == 0 {
		t.Fatal("churn drivers never stepped")
	}
	if res.InferRuns == 0 || res.InferRules == 0 {
		t.Fatalf("inference never ran: runs=%d rules=%d", res.InferRuns, res.InferRules)
	}
	if res.Errs != 0 {
		t.Fatalf("device errors = %d", res.Errs)
	}
	if len(res.PerSite) != 12 || len(res.Snapshots) != 12 {
		t.Fatalf("per-site fold incomplete: %d/%d", len(res.PerSite), len(res.Snapshots))
	}
	// Resident rules never exceed any site's capacity (the layout and move
	// guards exist to keep table-full rejections out of steady state).
	if res.TableFull != 0 {
		t.Fatalf("table-full rejections = %d", res.TableFull)
	}
	// The fleet fold landed in the run's registry.
	if res.Events == 0 || o.Registry.Counter("scale.events").Value() != int64(res.Events) {
		t.Fatal("fleet fold missing from registry")
	}
}

// TestScaleChurnDisabled runs the harness with a negative ChurnRate, which
// Options documents as "disables churn": no site has a schedule, so each
// hands WrapBackground a nil *ChurnDriver, and the run must complete with the
// tables filled and no churn applied rather than step a nil driver.
func TestScaleChurnDisabled(t *testing.T) {
	o := smallOpts(1, 0)
	o.ChurnRate = -1
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnApplied != 0 {
		t.Errorf("ChurnApplied = %d with churn disabled", res.ChurnApplied)
	}
	if res.FlowsResident < o.Flows {
		t.Errorf("FlowsResident = %d, want >= %d", res.FlowsResident, o.Flows)
	}
}

// TestScaleShardedDifferential is the epoch-barrier determinism gate: the
// full Result (counters, per-site stats, telemetry snapshots) and every
// site's flight-recorder samples must be bit-identical between the serial
// run (Shards=1) and the fully sharded run, across seeds.
func TestScaleShardedDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		o1 := smallOpts(seed, 1)
		oN := smallOpts(seed, 12)
		r1, err := Run(o1)
		if err != nil {
			t.Fatal(err)
		}
		rN, err := Run(oN)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Shards != 1 || rN.Shards != 12 {
			t.Fatalf("seed %d: shards = %d/%d", seed, r1.Shards, rN.Shards)
		}
		if !reflect.DeepEqual(r1.Deterministic(), rN.Deterministic()) {
			t.Errorf("seed %d: serial and sharded results diverge", seed)
			d1, dN := r1.Deterministic(), rN.Deterministic()
			if !reflect.DeepEqual(d1.Snapshots, dN.Snapshots) {
				t.Error("  telemetry snapshots differ")
			}
			d1.Snapshots, dN.Snapshots = nil, nil
			if !reflect.DeepEqual(d1, dN) {
				t.Errorf("  scalar results differ:\n  serial:  %+v\n  sharded: %+v", d1, dN)
			}
			continue
		}
		for _, ps := range r1.PerSite {
			s1 := o1.Flight.Track(ps.Name).Samples()
			sN := oN.Flight.Track(ps.Name).Samples()
			if !reflect.DeepEqual(s1, sN) {
				t.Errorf("seed %d: flight samples diverge for %s", seed, ps.Name)
			}
		}
	}
}
