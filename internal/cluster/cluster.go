// Package cluster implements one-dimensional clustering of round-trip-time
// samples. The Tango inference engine clusters probe RTTs to discover how
// many flow-table layers a switch has (§5.2 of the paper: "We cluster the RTT
// to determine the number of flow table layers — each cluster corresponds to
// one layer").
//
// Find runs three stages, and each owns one decision:
//
//  1. Gap splitting proposes. Sort the samples and mark every inter-sample
//     gap that is large against the mean gap and either clears an absolute
//     floor (a tenth of the sample span) or is a tier step on its own
//     (StepRatio). The floor is what proposes a cut between two wide tiers
//     whose tails come within a step of each other.
//  2. 1-D k-means (Lloyd's algorithm), seeded with the gap-split centroids,
//     absorbs stragglers: one far sample of a wide tier that stage 1 cut off
//     on its own is pulled back when its neighbours' centroid is nearer.
//  3. Validation disposes. Adjacent clusters whose means are less than
//     StepRatio apart are merged: tiers differ by a factor (fast vs. slow vs.
//     control path, 5–10×), so a boundary only an absolute gap supports is
//     noise inside one tier, not a layer.
//
// DESIGN §6 has the populations that show why none of the three can go.
package cluster

import (
	"errors"
	"math"
	"slices"
)

// Cluster describes one latency tier found in a sample set.
type Cluster struct {
	// Mean is the centroid of the cluster.
	Mean float64
	// Min and Max bound the members of the cluster.
	Min, Max float64
	// Count is the number of samples assigned to the cluster.
	Count int
}

// Result is the outcome of clustering: tiers sorted by ascending mean and an
// assignment from each input sample index to its tier index.
type Result struct {
	Clusters   []Cluster
	Assignment []int
}

// Options is empty: every field it had was set by no caller and is a constant
// below. The type stays while benchmark/ spells Find(rtts, cluster.Options{}).
type Options struct{}

const (
	// StepRatio is the smallest factor between two latency tiers: a sample
	// (or a cluster mean) this many times the one below it is on a slower
	// path, anything closer is spread within one.
	StepRatio = 1.3

	// maxClusters caps how many tiers may be reported: TCAM, kernel, user
	// space, control path is the deepest hierarchy the switch model produces.
	maxClusters = 4
	// gapFactor is the multiple of the mean inter-sample gap above which a
	// gap is a candidate boundary.
	gapFactor = 8
	// spanFloor is the share of the full sample range a candidate gap must
	// reach unless it is a StepRatio jump, guarding against splitting
	// clusters of near-identical samples whose mean gap is ~0.
	spanFloor = 0.10
	// kmeansIterations bounds the refinement loop.
	kmeansIterations = 32
)

// ErrEmpty is returned when no samples are supplied.
var ErrEmpty = errors.New("cluster: no samples")

// Find clusters xs into latency tiers. The returned tiers are sorted by
// ascending mean; Assignment[i] gives the tier of xs[i]. It is a one-shot
// Finder; code that clusters again and again keeps a Finder instead.
func Find(xs []float64, _ Options) (Result, error) {
	var f Finder
	return f.Find(xs)
}

// Finder runs Find's three stages in buffers it keeps from one call to the
// next, so a caller that clusters round after round allocates only while
// its inputs grow. The zero value is ready to use. A Result's slices are
// the Finder's own and valid until its next Find; copy what must outlive
// it.
type Finder struct {
	// floats backs the sorted values and their gaps, ints the sorted and
	// the input-order assignments.
	floats   []float64
	ints     []int
	big      []bigGap
	clusters []Cluster
	// Per-cluster scratch: there are never more than maxClusters.
	bounds, counts  [maxClusters]int
	centroids, sums [maxClusters]float64
}

// bigGap is a candidate boundary: the sorted index it starts a segment at,
// and the gap's width.
type bigGap struct {
	pos int
	g   float64
}

// Find is the package-level Find on f's buffers.
func (f *Finder) Find(xs []float64) (Result, error) {
	if len(xs) == 0 {
		return Result{}, ErrEmpty
	}
	n := len(xs)
	f.floats = grow(f.floats, 2*n)
	f.ints = grow(f.ints, 2*n)
	values := f.floats[:n]
	copy(values, xs)
	slices.Sort(values)

	// Stage 1: find boundaries at large gaps, and build initial centroids
	// from the gap segments.
	boundaries := append(f.gapBoundaries(values), n)
	centroids := f.centroids[:0]
	start := 0
	for _, b := range boundaries {
		var sum float64
		for _, v := range values[start:b] {
			sum += v
		}
		centroids = append(centroids, sum/float64(b-start))
		start = b
	}

	// Stage 2: k-means refinement on the sorted values.
	k := len(centroids)
	assignSorted := kmeans1D(values, centroids, f.ints[:n], f.sums[:k], f.counts[:k], kmeansIterations)

	// Assemble clusters from the sorted values.
	f.clusters = grow(f.clusters, maxClusters)
	clusters := f.clusters[:k]
	for i := range clusters {
		clusters[i] = Cluster{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	sums := f.sums[:k]
	clear(sums)
	for i, v := range values {
		c := assignSorted[i]
		cl := &clusters[c]
		cl.Count++
		sums[c] += v
		if v < cl.Min {
			cl.Min = v
		}
		if v > cl.Max {
			cl.Max = v
		}
	}
	// Drop empty clusters (k-means can abandon a centroid) and renumber.
	kept := clusters[:0]
	for i, cl := range clusters {
		if cl.Count == 0 {
			continue
		}
		cl.Mean = sums[i] / float64(cl.Count)
		kept = append(kept, cl)
	}
	// Map each input to its tier. Every k-means pass assigns equal values
	// alike and keeps tiers in ascending runs of the sorted values, so a
	// value's tier is the first one whose Max reaches it.
	assignment := f.ints[n:]
	for i, v := range xs {
		c := 0
		for v > kept[c].Max {
			c++
		}
		assignment[i] = c
	}

	// Validation pass: k-means happily bisects a unimodal tier (a tail
	// outlier can seed a spurious boundary which Lloyd's algorithm then
	// drags to the median). Merge adjacent clusters that are not separated
	// like genuine latency tiers, which differ multiplicatively.
	kept, assignment = mergeIndistinct(kept, assignment)
	return Result{Clusters: kept, Assignment: assignment}, nil
}

// grow returns buf resized to n elements, reallocating only when its
// capacity falls short. The elements keep whatever they held: every caller
// writes each one before reading it.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// mergeIndistinct repeatedly merges adjacent clusters (sorted by mean) whose
// means differ by less than StepRatio, rewriting assignments accordingly.
func mergeIndistinct(clusters []Cluster, assignment []int) ([]Cluster, []int) {
	for {
		merged := false
		for i := 0; i+1 < len(clusters); i++ {
			lo, hi := clusters[i], clusters[i+1]
			if lo.Mean <= 0 || hi.Mean/lo.Mean >= StepRatio {
				continue
			}
			total := lo.Count + hi.Count
			clusters[i] = Cluster{
				Mean:  (lo.Mean*float64(lo.Count) + hi.Mean*float64(hi.Count)) / float64(total),
				Min:   lo.Min,
				Max:   hi.Max,
				Count: total,
			}
			clusters = append(clusters[:i+1], clusters[i+2:]...)
			for j, a := range assignment {
				if a > i {
					assignment[j] = a - 1
				}
			}
			merged = true
			break
		}
		if !merged {
			return clusters, assignment
		}
	}
}

// gapBoundaries returns the indices of the sorted values where a new
// cluster begins, capped so at most maxClusters segments result. The gaps
// go in f.floats after the values.
func (f *Finder) gapBoundaries(values []float64) []int {
	// Room for one more than the boundaries kept: Find's closing one.
	out := f.bounds[:0]
	n := len(values)
	if n < 2 {
		return out
	}
	gaps := f.floats[n : 2*n-1]
	var total float64
	for i := range gaps {
		gaps[i] = values[i+1] - values[i]
		total += gaps[i]
	}
	meanGap := total / float64(n-1)
	floor := (values[n-1] - values[0]) * spanFloor

	big := f.big[:0]
	for i, g := range gaps {
		if g <= 0 || g <= meanGap*gapFactor {
			continue
		}
		// A tier step qualifies even when it is small against the full span.
		lo, hi := values[i], values[i+1]
		if g >= floor || (lo > 0 && hi >= lo*StepRatio) {
			big = append(big, bigGap{i + 1, g})
		}
	}
	f.big = big
	// Keep only the largest maxClusters-1 boundaries. Which of several
	// equal gaps survive the cut is this unstable sort's tie order, so a
	// different sort moves boundaries on tied inputs.
	slices.SortFunc(big, func(a, b bigGap) int {
		switch {
		case a.g > b.g:
			return -1
		case a.g < b.g:
			return 1
		default:
			return 0
		}
	})
	if len(big) > maxClusters-1 {
		big = big[:maxClusters-1]
	}
	for _, b := range big {
		out = append(out, b.pos)
	}
	slices.Sort(out)
	return out
}

// kmeans1D runs Lloyd's algorithm on sorted values with the given initial
// centroids and returns per-value cluster assignments in assign. Because
// values are sorted and centroids stay sorted, assignment reduces to
// threshold search. assign has len(values) entries; whatever they held, the
// first pass leaves each at its nearest centroid and never ends the loop.
// sums and counts are the k-entry accumulators.
func kmeans1D(values, centroids []float64, assign []int, sums []float64, counts []int, iters int) []int {
	k := len(centroids)
	for it := 0; it < iters; it++ {
		slices.Sort(centroids)
		changed := false
		c := 0
		for i, v := range values {
			for c+1 < k && math.Abs(centroids[c+1]-v) < math.Abs(centroids[c]-v) {
				c++
			}
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		clear(sums)
		clear(counts)
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for j := 0; j < k; j++ {
			if counts[j] > 0 {
				centroids[j] = sums[j] / float64(counts[j])
			}
		}
	}
	return assign
}

// Within reports whether value v falls inside cluster c, extended by slack on
// either side. The probing engine uses this to decide whether a measured RTT
// still belongs to a previously identified latency tier.
func Within(c Cluster, v, slack float64) bool {
	return v >= c.Min-slack && v <= c.Max+slack
}
