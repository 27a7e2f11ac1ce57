package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default histogram boundaries, for durations in
// nanoseconds: a uniform log scale, ten buckets per decade from 1µs to 100s
// (81 bounds, each 10^0.1 ≈ 1.26× the last), which covers everything from a
// fast-path RTT sample to a whole scheduling run's makespan and bounds every
// quantile's error by one bucket ratio (see the package docs).
var DefBuckets = func() []float64 {
	b := make([]float64, 8*10+1)
	for i := range b {
		b[i] = math.Pow(10, 3+float64(i)/10) // exact at the decades
	}
	return b
}()

// Histogram records a distribution into fixed buckets. Observing is an
// atomic fast path with no allocation; raw samples are the flight
// recorder's job. A nil *Histogram is a no-op.
type Histogram struct {
	bounds  []float64 // immutable upper bucket boundaries, ascending
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
	min     atomic.Uint64 // float64 bits
	max     atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	casFloat(&h.sum, func(cur float64) (float64, bool) { return cur + v, true })
	casFloat(&h.min, func(cur float64) (float64, bool) { return v, v < cur })
	casFloat(&h.max, func(cur float64) (float64, bool) { return v, v > cur })
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// casFloat atomically replaces the float64 stored in a's bits with
// next(current), unless next declines.
func casFloat(a *atomic.Uint64, next func(cur float64) (float64, bool)) {
	for {
		old := a.Load()
		v, ok := next(math.Float64frombits(old))
		if !ok || a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// bucketQuantile is the package's one quantile estimator: the q-th
// percentile of per-bucket counts (counts[i] pairs with upper bound
// h.bounds[i]; the final slot is the overflow bucket; total is their sum),
// found by locating the bucket holding the sample of rank ⌈q·total⌉ and
// interpolating linearly inside it. The histogram's lifetime min/max clamp
// the bucket edges, which pins the open-ended first and overflow buckets to
// real values. The estimate and that sample share a bucket, so they differ
// by at most one bucket ratio (DefBuckets: 10^0.1 ≈ 1.26×) at every count.
// Returns 0 when total is 0.
func (h *Histogram) bucketQuantile(counts []int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	min, max := math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load())
	rank := q / 100 * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return max
}

// BucketCount is one cumulative-free histogram bucket: the number of
// observations v with prevLE < v ≤ LE. The final (overflow) bucket has
// LE = +Inf, which JSON cannot spell as a number: it travels as "+Inf".
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// bucketJSON is BucketCount's wire form: le is a number or "+Inf".
type bucketJSON struct {
	LE    any   `json:"le"`
	Count int64 `json:"count"`
}

func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return json.Marshal(bucketJSON{"+Inf", b.Count})
	}
	return json.Marshal(bucketJSON{b.LE, b.Count})
}

func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	le, ok := w.LE.(float64)
	if !ok {
		if w.LE != "+Inf" {
			return fmt.Errorf("telemetry: bucket bound %v", w.LE)
		}
		le = math.Inf(1)
	}
	*b = BucketCount{le, w.Count}
	return nil
}

// HistogramSnapshot is a point-in-time summary of a histogram. P50/P90/P99
// are bucketQuantile estimates over the full-stream bucket counts, clamped
// to [Min, Max]: within one bucket ratio of the exact sample quantile.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Mean    float64       `json:"mean"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot summarises the histogram. Empty histograms report all zeros.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.Count()
	if n == 0 {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: n,
		Sum:   math.Float64frombits(h.sum.Load()),
		Min:   math.Float64frombits(h.min.Load()),
		Max:   math.Float64frombits(h.max.Load()),
	}
	s.Mean = s.Sum / float64(n)
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.P50 = h.bucketQuantile(counts, total, 50)
	s.P90 = h.bucketQuantile(counts, total, 90)
	s.P99 = h.bucketQuantile(counts, total, 99)
	for i, c := range counts {
		if c == 0 {
			continue // keep snapshots small: most duration buckets are empty
		}
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: c})
	}
	return s
}
