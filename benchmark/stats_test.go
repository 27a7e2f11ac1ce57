package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// TestQuartilesMatchPython pins the cut points to what Python's
// statistics.quantiles(xs, n=4) returns, since the driver judges spread with
// it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4, 9, 2}, 1.5, 4, 9.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", c.xs, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, 1) {
		t.Errorf("spread = %v (%v), want 1", s, err)
	}
	if _, err := spread([]float64{-1, 0, 1}); err == nil {
		t.Error("spread of a zero median did not fail")
	}
}

func TestPercentileCountsTheTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[199-i] = float64(i) // descending: percentile must sort
	}
	v, beyond, err := percentile(xs, 95)
	if err != nil || !near(v, 189.05) || beyond != 10 {
		t.Errorf("p95 of 0..199 = %v with %d beyond (%v), want 189.05 with 10", v, beyond, err)
	}
	// 180 samples leave nine beyond: refused, value still returned.
	v, beyond, err = percentile(xs[20:], 95)
	if err == nil || beyond != 9 || !near(v, 170.05) {
		t.Errorf("p95 of 0..179 = %v with %d beyond, err %v; want a refusal at 170.05 with 9 beyond", v, beyond, err)
	}
	if _, _, err := percentile(xs, 99.9); err == nil {
		t.Error("p99.9 of 200 samples was not refused")
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples did not fail")
	}
	if _, _, err := percentile(xs, 100); err == nil {
		t.Error("p100 did not fail")
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1000, 1, 2, 3, 4, 5, 6, 7, 8, -1000}
	if got := trimmedMean(xs, 0.1); !near(got, 4.5) {
		t.Errorf("trimmedMean(10%%) = %v, want 4.5", got)
	}
	if got := trimmedMean(xs, 0); !near(got, 3.6) {
		t.Errorf("trimmedMean(0) = %v, want 3.6", got)
	}
	if !math.IsNaN(trimmedMean(xs, 0.5)) || !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Error("trimmedMean accepted a half trim or an empty sample")
	}
}

// TestMedianRateIgnoresOneSlowOp is the reason throughput is work over the
// median op time: a stalled op moves total/elapsed, not this.
func TestMedianRateIgnoresOneSlowOp(t *testing.T) {
	steady := []float64{0.01, 0.01, 0.01, 0.01, 0.01}
	stalled := []float64{0.01, 0.01, 5, 0.01, 0.01}
	if a, b := medianRate(100, steady), medianRate(100, stalled); !near(a, 10000) || a != b {
		t.Errorf("medianRate = %v steady, %v with a stall; want 10000 both", a, b)
	}
	if !math.IsNaN(medianRate(1, nil)) {
		t.Error("medianRate of no ops is not NaN")
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "work_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m                 specMetric
		ref, cand, spread float64
		want              string
	}{
		{lower, 100, 105, 0.02, "ok"},
		{lower, 100, 111, 0.02, "worse"},
		{lower, 100, 80, 0.02, "ok"},
		{lower, 100, 105, 0.20, "unresolved"},
		{higher, 100, 95, 0.02, "ok"},
		{higher, 100, 89, 0.02, "worse"},
		{higher, 100, 120, 0.30, "unresolved"},
	} {
		if got := verdict(c.m, c.ref, c.cand, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.m.Name, c.ref, c.cand, c.spread, got, c.want)
		}
	}
}
