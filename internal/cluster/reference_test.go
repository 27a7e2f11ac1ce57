package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refFind is Find as it was written before it sorted plain values: every
// sample carries its input index through a comparator sort, and the
// assignment is mapped back through those indices. It is kept only as the
// differential's oracle.
func refFind(xs []float64) (Result, error) {
	if len(xs) == 0 {
		return Result{}, ErrEmpty
	}
	n := len(xs)
	ss := make([]refSample, n)
	for i, v := range xs {
		ss[i] = refSample{v, i}
	}
	slices.SortFunc(ss, func(a, b refSample) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	values := make([]float64, n)
	for i, s := range ss {
		values[i] = s.v
	}
	var f Finder
	f.floats = make([]float64, 2*n)
	boundaries := append(f.gapBoundaries(values), n)
	var centroids []float64
	start := 0
	for _, b := range boundaries {
		var sum float64
		for i := start; i < b; i++ {
			sum += ss[i].v
		}
		centroids = append(centroids, sum/float64(b-start))
		start = b
	}
	k := len(centroids)
	sums, counts := make([]float64, k), make([]int, k)
	assignSorted := kmeans1D(values, centroids, make([]int, n), sums, counts, kmeansIterations)

	clusters := make([]Cluster, k)
	for i := range clusters {
		clusters[i] = Cluster{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	assignment := make([]int, n)
	clear(sums)
	for i, s := range ss {
		c := assignSorted[i]
		assignment[s.idx] = c
		cl := &clusters[c]
		cl.Count++
		sums[c] += s.v
		if s.v < cl.Min {
			cl.Min = s.v
		}
		if s.v > cl.Max {
			cl.Max = s.v
		}
	}
	remap := make([]int, k)
	kept := clusters[:0]
	for i, cl := range clusters {
		if cl.Count == 0 {
			remap[i] = -1
			continue
		}
		cl.Mean = sums[i] / float64(cl.Count)
		remap[i] = len(kept)
		kept = append(kept, cl)
	}
	for i, a := range assignment {
		assignment[i] = remap[a]
	}
	kept, assignment = mergeIndistinct(kept, assignment)
	return Result{Clusters: kept, Assignment: assignment}, nil
}

type refSample struct {
	v   float64
	idx int
}

// TestFindMatchesSampleSort holds Find, which sorts a copy of the values and
// assigns each input by its value's tier, to refFind on seeded inputs of one
// to six tiers, with ties everywhere: values quantised to a coarse grid,
// runs of one repeated value, and whole tiers of one value. Any input whose
// equal values could land in two tiers would show as a different
// assignment.
func TestFindMatchesSampleSort(t *testing.T) {
	var f Finder
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tiers := 1 + int(seed%6)
		centres := make([]float64, tiers)
		c := 200 + rng.Float64()*800
		for i := range centres {
			centres[i] = c
			c *= 1.2 + rng.Float64()*4
		}
		xs, _ := tiered(rng, centres, 1+rng.Intn(300))
		switch seed % 4 {
		case 1: // a coarse grid: many equal values, equal gaps
			q := centres[0] / float64(2+rng.Intn(20))
			for i, v := range xs {
				xs[i] = math.Round(v/q) * q
			}
		case 2: // one value repeated in runs
			for i := range xs {
				if rng.Intn(3) == 0 {
					xs[i] = xs[rng.Intn(len(xs))]
				}
			}
		case 3: // a tier of one value
			for i, v := range xs {
				if v < centres[0]*1.1 {
					xs[i] = centres[0]
				}
			}
		}
		want, err := refFind(xs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Find(xs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d tiers, %d samples):\n got %+v\nwant %+v", seed, tiers, len(xs), got.Clusters, want.Clusters)
		}
	}
}
