package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// tiered generates n samples around each of the given tier centres with ±5%
// jitter, mimicking fast/slow/control path RTT populations.
func tiered(rng *rand.Rand, centres []float64, n int) ([]float64, []int) {
	var xs []float64
	var truth []int
	for tier, c := range centres {
		for i := 0; i < n; i++ {
			xs = append(xs, c*(0.95+rng.Float64()*0.10))
			truth = append(truth, tier)
		}
	}
	// Shuffle to ensure Find does not depend on input order.
	rng.Shuffle(len(xs), func(i, j int) {
		xs[i], xs[j] = xs[j], xs[i]
		truth[i], truth[j] = truth[j], truth[i]
	})
	return xs, truth
}

func TestFindThreeTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Fast path 0.6ms, slow path 3.7ms, control path 7.5ms — Switch #1 tiers.
	xs, truth := tiered(rng, []float64{0.665, 3.7, 7.5}, 200)
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("got %d clusters, want 3: %+v", len(res.Clusters), res.Clusters)
	}
	for i, a := range res.Assignment {
		if a != truth[i] {
			t.Fatalf("sample %d assigned tier %d, want %d", i, a, truth[i])
		}
	}
	if !sort.SliceIsSorted(res.Clusters, func(a, b int) bool {
		return res.Clusters[a].Mean < res.Clusters[b].Mean
	}) {
		t.Fatal("clusters not sorted by mean")
	}
}

func TestFindTwoTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Switch #2: fast path 0.4ms, control path 8ms.
	xs, _ := tiered(rng, []float64{0.4, 8.0}, 500)
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(res.Clusters))
	}
}

func TestFindSingleTier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, _ := tiered(rng, []float64{3.0}, 300)
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 {
		t.Fatalf("got %d clusters, want 1: %+v", len(res.Clusters), res.Clusters)
	}
	if res.Clusters[0].Count != 300 {
		t.Fatalf("count = %d, want 300", res.Clusters[0].Count)
	}
}

func TestFindConstantSamples(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].Mean != 5 {
		t.Fatalf("constant samples: %+v", res.Clusters)
	}
}

func TestFindSingleSample(t *testing.T) {
	res, err := Find([]float64{1.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].Count != 1 {
		t.Fatalf("single sample: %+v", res.Clusters)
	}
}

func TestFindEmpty(t *testing.T) {
	if _, err := Find(nil, Options{}); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestFindMaxClustersCap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Five tiers a factor of two apart: all four gaps are candidates, the cap
	// keeps the three largest.
	xs, _ := tiered(rng, []float64{1, 2, 4, 8, 16}, 50)
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != maxClusters {
		t.Fatalf("got %d clusters from five tiers, cap is %d", len(res.Clusters), maxClusters)
	}
}

func TestFindFourTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, _ := tiered(rng, []float64{0.3, 2.0, 12, 60}, 120)
	res, err := Find(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("got %d clusters, want 4: %+v", len(res.Clusters), res.Clusters)
	}
}

func TestWithin(t *testing.T) {
	c := Cluster{Min: 1, Max: 2}
	if !Within(c, 1.5, 0) || !Within(c, 0.95, 0.1) || Within(c, 2.5, 0.1) {
		t.Fatal("Within boundary logic wrong")
	}
}

// Property: every sample is assigned to exactly one reported cluster, cluster
// counts sum to the sample count, and each sample lies within its cluster's
// [Min, Max].
func TestFindInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		res, err := Find(xs, Options{})
		if err != nil {
			return false
		}
		total := 0
		for _, c := range res.Clusters {
			total += c.Count
		}
		if total != len(xs) {
			return false
		}
		for i, a := range res.Assignment {
			if a < 0 || a >= len(res.Clusters) {
				return false
			}
			c := res.Clusters[a]
			if xs[i] < c.Min || xs[i] > c.Max {
				return false
			}
		}
		// Cluster ranges must not overlap when sorted by mean.
		for i := 1; i < len(res.Clusters); i++ {
			if res.Clusters[i].Min < res.Clusters[i-1].Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFinderReuseMatchesFind runs one Finder over inputs that grow and
// shrink — tiered mixtures, single samples, constants and quantised values
// with tied gaps — and requires exactly what a fresh Find returns on each.
// A buffer that kept a previous input's values, assignments or cluster
// counts would show here.
func TestFinderReuseMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var f Finder
	for trial := 0; trial < 3000; trial++ {
		var xs []float64
		switch trial % 5 {
		case 0:
			xs = []float64{float64(rng.Intn(1000))}
		case 1:
			xs = make([]float64, 1+rng.Intn(40))
			for i := range xs {
				xs[i] = 700
			}
		default:
			centres := []float64{500, 3700, 7500, 20000}[:1+rng.Intn(4)]
			xs, _ = tiered(rng, centres, 1+rng.Intn(600))
			if trial%5 == 4 {
				for i, v := range xs {
					xs[i] = float64(int(v) / 50 * 50)
				}
			}
		}
		want, err := Find(xs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Find(xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) || !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("trial %d (%d samples): reused Finder\n got %+v\nwant %+v", trial, len(xs), got, want)
		}
	}
	if _, err := f.Find(nil); err != ErrEmpty {
		t.Fatalf("empty input: %v, want ErrEmpty", err)
	}
}

// TestFinderReuseAllocatesNothing: once its buffers have grown to an input,
// a Finder clusters an input no larger without allocating.
func TestFinderReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	big, _ := tiered(rng, []float64{500, 3700, 7500}, 400)
	small, _ := tiered(rng, []float64{500, 3700}, 50)
	var f Finder
	if _, err := f.Find(big); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := f.Find(small); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Find(big); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a reused Finder allocates %v times per two inputs", n)
	}
}
