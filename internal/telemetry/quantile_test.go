package telemetry

// quantile_test.go holds the one quantile estimator to its stated bound
// (doc.go, "Quantile error bound"): every reported p50/p90/p99 shares a
// bucket with the sample of rank ⌈q·n⌉, so on DefBuckets it is within one
// bucket ratio (10^0.1 ≈ 1.26×) of the exact sample quantile — at every
// count, with no change of estimator anywhere along the stream.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"tango/internal/stats"
)

// rttStreams are seeded sample streams in nanoseconds: a lognormal, and the
// three-tier fast/slow/punt mixture a probed switch produces (Figure 5).
func rttStreams(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(23))
	logn := make([]float64, n)
	tiers := make([]float64, n)
	for i := range logn {
		logn[i] = 2e5 * math.Exp(rng.NormFloat64())
		mean, sd := 1e5, 1e4 // fast path, 70 %
		switch u := rng.Float64(); {
		case u > 0.95: // punted to the controller
			mean, sd = 4e7, 5e6
		case u > 0.70: // software table
			mean, sd = 3e6, 3e5
		}
		tiers[i] = math.Max(1e3, mean+sd*rng.NormFloat64())
	}
	return map[string][]float64{"lognormal": logn, "three-tier": tiers}
}

func TestQuantileErrorBound(t *testing.T) {
	ratio := DefBuckets[1] / DefBuckets[0]
	if math.Abs(ratio-math.Pow(10, 0.1)) > 1e-12 || len(DefBuckets) != 81 ||
		DefBuckets[0] != 1e3 || DefBuckets[40] != 1e7 || DefBuckets[80] != 1e11 {
		t.Fatalf("DefBuckets is not ten per decade over 1µs–100s: ratio %v, %d bounds", ratio, len(DefBuckets))
	}
	for name, stream := range rttStreams(100000) {
		var at1024 HistogramSnapshot
		for _, n := range []int{10, 1000, 1024, 1025, 100000} {
			xs := stream[:n]
			h := newHistogram(nil)
			for _, x := range xs {
				h.Observe(x)
			}
			s := h.Snapshot()
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, q := range []struct{ p, got float64 }{{50, s.P50}, {90, s.P90}, {99, s.P99}} {
				// stats.Percentile interpolates between the two order
				// statistics around rank p(n-1); the estimate must be within
				// one bucket ratio of that bracket, and — once samples are
				// dense enough for the bracket to sit inside a bucket — of
				// the interpolated value itself.
				rank := q.p / 100 * float64(n-1)
				lo, hi := sorted[int(math.Floor(rank))], sorted[int(math.Ceil(rank))]
				if q.got < lo/ratio || q.got > hi*ratio {
					t.Errorf("%s n=%d p%v = %v, outside [%v, %v] by more than one bucket", name, n, q.p, q.got, lo, hi)
				}
				if want, _ := stats.Percentile(xs, q.p); n >= 1000 && (q.got < want/ratio || q.got > want*ratio) {
					t.Errorf("%s n=%d p%v = %v, exact %v: off by more than one bucket ratio %.3f", name, n, q.p, q.got, want, ratio)
				}
			}
			if !(s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
				t.Errorf("%s n=%d: quantiles not monotone inside [min, max]: %+v", name, n, s)
			}
			// The 1,025th observation is one more sample, not a change of
			// estimator (the parent switched from exact to interpolated
			// here): no quantile moves by more than 2 %.
			switch n {
			case 1024:
				at1024 = s
			case 1025:
				for _, q := range [][2]float64{{at1024.P50, s.P50}, {at1024.P90, s.P90}, {at1024.P99, s.P99}} {
					if math.Abs(q[1]-q[0]) > 0.02*q[0] {
						t.Errorf("%s: quantile jumps %v → %v across 1024 → 1025 samples", name, q[0], q[1])
					}
				}
			}
		}
	}
}

// TestHistogramFootprint pins what a default histogram costs per instance —
// the struct plus its bucket counters (the bounds are shared) — under 1 KiB.
// The parent's struct alone was 8 KiB+ of observation ring.
func TestHistogramFootprint(t *testing.T) {
	h := newHistogram(nil)
	if size := unsafe.Sizeof(Histogram{}) + uintptr(len(h.buckets))*unsafe.Sizeof(h.buckets[0]); size >= 1024 {
		t.Fatalf("a default histogram occupies %d B, want < 1 KiB", size)
	}
}
