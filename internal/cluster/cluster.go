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
// DESIGN §15 has the populations that show why none of the three can go.
package cluster

import (
	"errors"
	"math"
	"slices"
	"sort"
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
// ascending mean; Assignment[i] gives the tier of xs[i].
func Find(xs []float64, _ Options) (Result, error) {
	if len(xs) == 0 {
		return Result{}, ErrEmpty
	}
	ss := make([]sample, len(xs))
	for i, v := range xs {
		ss[i] = sample{v, i}
	}
	sortSamples(ss)

	// Stage 1: find boundaries at large gaps.
	boundaries := gapBoundaries(ss)

	// Build initial centroids from the gap segments.
	centroids := make([]float64, 0, len(boundaries)+1)
	start := 0
	for _, b := range append(boundaries, len(ss)) {
		var sum float64
		for i := start; i < b; i++ {
			sum += ss[i].v
		}
		centroids = append(centroids, sum/float64(b-start))
		start = b
	}

	// Stage 2: k-means refinement on the sorted values.
	values := make([]float64, len(ss))
	for i, s := range ss {
		values[i] = s.v
	}
	assignSorted := kmeans1D(values, centroids, kmeansIterations)

	// Assemble clusters and map assignments back to input order.
	k := len(centroids)
	clusters := make([]Cluster, k)
	for i := range clusters {
		clusters[i].Min = math.Inf(1)
		clusters[i].Max = math.Inf(-1)
	}
	assignment := make([]int, len(xs))
	sums := make([]float64, k)
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
	// Drop empty clusters (k-means can abandon a centroid) and renumber.
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

	// Validation pass: k-means happily bisects a unimodal tier (a tail
	// outlier can seed a spurious boundary which Lloyd's algorithm then
	// drags to the median). Merge adjacent clusters that are not separated
	// like genuine latency tiers, which differ multiplicatively.
	kept, assignment = mergeIndistinct(kept, assignment)
	return Result{Clusters: kept, Assignment: assignment}, nil
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

// sample pairs a value with its position in the caller's input slice.
type sample struct {
	v   float64
	idx int
}

// sortSamples orders samples by value. The generic sort avoids the
// reflection-based swapper of sort.Slice, which showed up in inference
// profiles (clustering sorts thousands of RTTs per level). Ties carry equal
// values, so the unstable order never changes boundaries or assignments.
func sortSamples(ss []sample) {
	slices.SortFunc(ss, func(a, b sample) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
}

// gapBoundaries returns sorted-sample indices where a new cluster begins,
// capped so at most maxClusters segments result.
func gapBoundaries(ss []sample) []int {
	if len(ss) < 2 {
		return nil
	}
	n := len(ss)
	gaps := make([]float64, n-1)
	var total float64
	for i := 0; i+1 < n; i++ {
		gaps[i] = ss[i+1].v - ss[i].v
		total += gaps[i]
	}
	meanGap := total / float64(n-1)
	floor := (ss[n-1].v - ss[0].v) * spanFloor

	type bigGap struct {
		pos int
		g   float64
	}
	var big []bigGap
	for i, g := range gaps {
		if g <= 0 || g <= meanGap*gapFactor {
			continue
		}
		// A tier step qualifies even when it is small against the full span.
		lo, hi := ss[i].v, ss[i+1].v
		if g >= floor || (lo > 0 && hi >= lo*StepRatio) {
			big = append(big, bigGap{i + 1, g})
		}
	}
	// Keep only the largest maxClusters-1 boundaries.
	sort.Slice(big, func(a, b int) bool { return big[a].g > big[b].g })
	if len(big) > maxClusters-1 {
		big = big[:maxClusters-1]
	}
	out := make([]int, len(big))
	for i, b := range big {
		out[i] = b.pos
	}
	sort.Ints(out)
	return out
}

// kmeans1D runs Lloyd's algorithm on sorted values with the given initial
// centroids and returns per-value cluster assignments. Because values are
// sorted and centroids stay sorted, assignment reduces to threshold search.
func kmeans1D(values, centroids []float64, iters int) []int {
	k := len(centroids)
	assign := make([]int, len(values))
	// Accumulator scratch is hoisted out of the iteration loop; Lloyd's
	// refinement otherwise allocates two fresh slices per pass.
	sums := make([]float64, k)
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		sort.Float64s(centroids)
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
