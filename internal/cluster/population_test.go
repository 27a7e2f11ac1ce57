package cluster_test

import (
	"math/rand"
	"testing"
	"time"

	"tango/internal/cluster"
	"tango/internal/switchsim"
)

// draw appends n samples of d, in nanoseconds as infer hands them to Find.
func draw(xs []float64, rng *rand.Rand, d switchsim.LatencyDist, n int) []float64 {
	for i := 0; i < n; i++ {
		xs = append(xs, float64(d.Sample(rng)))
	}
	return xs
}

// TestFindOneTierNeverSplits draws the population a generated TCAM-only
// switch answers a size probe with — one fast path, 64–256 samples, mean
// 350–650 µs, σ 20 µs — 2,000 times. There is one table, so there is one
// tier. While a boundary could survive validation on an absolute gap of a
// tenth of the sample span, 22 of these 2,000 came back as two: the span of
// one tier is its own noise, and a few low-tail samples cleared a tenth of it.
func TestFindOneTierNeverSplits(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := switchsim.LatencyDist{
			Mean:   time.Duration(350+rng.Intn(301)) * time.Microsecond,
			StdDev: 20 * time.Microsecond,
		}
		xs := draw(nil, rng, d, 64+rng.Intn(193))
		res, err := cluster.Find(xs, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Clusters) != 1 {
			t.Errorf("seed %d: %d samples of one tier (mean %v) split into %+v", seed, len(xs), d.Mean, res.Clusters)
		}
	}
}

// TestFindVendorMixtures holds Find to the tier count of what the emulated
// switches actually answer with: for each profile, 1,000 seeded mixtures of
// its first k latency tiers (k drawn from 1 to all of them, 20–419 samples a
// tier). The floors are what the commit before validation became ratio-only
// scored on this same draw; a change to any of Find's three stages must do at
// least as well. Two populations are why the stages are three: Switch #1's
// slow (3.7 ± 0.25 ms) and control (7.5 ± 0.7 ms) tiers come within a
// StepRatio of each other at the tails, so only the absolute floor proposes
// that cut, and one +3σ straggler of a wide control tier stays a tier of its
// own unless k-means pulls it back.
func TestFindVendorMixtures(t *testing.T) {
	tiers := func(p switchsim.Profile) []switchsim.LatencyDist {
		var ds []switchsim.LatencyDist
		for _, d := range []switchsim.LatencyDist{p.FastPath, p.MidPath, p.SlowPath, p.ControlPath} {
			if d.Mean != 0 {
				ds = append(ds, d)
			}
		}
		return ds
	}
	for _, c := range []struct {
		profile switchsim.Profile
		floor   int
	}{
		{switchsim.Switch1(), 944},
		{switchsim.Switch2(), 996},
		{switchsim.Switch3(), 997},
		{switchsim.TestSwitch(128, switchsim.PolicyFIFO), 996},
		{switchsim.FigureFiveSwitch(), 988},
	} {
		ds := tiers(c.profile)
		right := 0
		for seed := int64(0); seed < 1000; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(len(ds))
			var xs []float64
			for _, d := range ds[:k] {
				xs = draw(xs, rng, d, 20+rng.Intn(400))
			}
			res, err := cluster.Find(xs, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Clusters) == k {
				right++
			}
		}
		t.Logf("%s: tier count right on %d of 1000 mixtures", c.profile.Name, right)
		if right < c.floor {
			t.Errorf("%s: tier count right on %d of 1000 mixtures, floor %d", c.profile.Name, right, c.floor)
		}
	}
}
