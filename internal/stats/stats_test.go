package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := variance(xs); got != 4 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := math.Sqrt(variance(xs)); got != 2 {
		t.Fatalf("standard deviation = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := variance(nil); got != 0 {
		t.Fatalf("variance(nil) = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Fatalf("MinMax(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("Percentile(nil) err = %v, want ErrEmpty", err)
	}
	// Out-of-range p is clamped rather than rejected.
	if got, _ := Percentile(xs, 150); got != 5 {
		t.Fatalf("Percentile(150) = %v, want 5", got)
	}
	if got, _ := Percentile(xs, -10); got != 1 {
		t.Fatalf("Percentile(-10) = %v, want 1", got)
	}
}

func TestMedianSingleton(t *testing.T) {
	got, err := Median([]float64{42})
	if err != nil || got != 42 {
		t.Fatalf("Median([42]) = %v, %v", got, err)
	}
}

// DetectMicroflowCaching takes the median of 7 RTT samples twice per
// inspection; a sample that short is sorted in a copy on the stack.
func TestMedianOfShortSampleAllocatesNothing(t *testing.T) {
	xs := []float64{7, 3, 9, 1, 5, 3, 8}
	var got float64
	if n := testing.AllocsPerRun(100, func() { got, _ = Median(xs) }); n != 0 {
		t.Fatalf("Median of %d samples allocated %v times, want 0", len(xs), n)
	}
	if got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
}

// Either side of the stack copy's length, Percentile interpolates over a
// sorted copy and leaves its input unsorted.
func TestPercentileCopiesAtEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, shortSample - 1, shortSample, shortSample + 1, 3 * shortSample} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*100) / 4
		}
		orig := append([]float64(nil), xs...)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 10, 50, 90, 99.9, 100} {
			got, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			rank := p / 100 * float64(n-1)
			lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
			want := sorted[lo]
			if lo != hi {
				frac := rank - float64(lo)
				want = sorted[lo]*(1-frac) + sorted[hi]*frac
			}
			if got != want {
				t.Errorf("n=%d p=%v: %v, want %v", n, p, got, want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("n=%d: input changed at %d", n, i)
			}
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err != nil || r != 0 {
		t.Fatalf("constant x: r=%v err=%v, want 0, nil", r, err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for single sample")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman should be exactly 1 for any strictly increasing transform.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25}
	r, err := Spearman(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", r)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 1, 1e-9) || !almost(b, 2, 1e-9) {
		t.Fatalf("LinearFit = (%v, %v), want (1, 2)", a, b)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("expected error for constant x")
	}
}

func TestNegBinomialMLE(t *testing.T) {
	// If every trial sees x consecutive hits then p̂ = kx/(k+kx) = x/(1+x).
	p, err := NegBinomialMLE([]int{4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(p, 0.8, 1e-12) {
		t.Fatalf("p̂ = %v, want 0.8", p)
	}
	if _, err := NegBinomialMLE(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if _, err := NegBinomialMLE([]int{-1}); err == nil {
		t.Fatal("expected error for negative count")
	}
}

// TestNegBinomialMLERecovers verifies the estimator converges to the true
// cache-hit probability on synthetic geometric data — the exact setting of
// Algorithm 1's sampling phase.
func TestNegBinomialMLERecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []float64{0.2, 0.5, 0.8, 0.95} {
		const k = 4000
		trials := make([]int, k)
		for i := range trials {
			x := 0
			for rng.Float64() < p {
				x++
			}
			trials[i] = x
		}
		got, err := NegBinomialMLE(trials)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p) > 0.02 {
			t.Errorf("p=%v: estimate %v off by more than 0.02", p, got)
		}
	}
}

// Property: Pearson is symmetric, bounded by [-1, 1], and invariant under
// positive affine transforms of either argument.
func TestPearsonProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v%17) * 3.5
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(r1) > 1+1e-9 || math.Abs(r1-r2) > 1e-9 {
			return false
		}
		// Affine transform x -> 2x + 5 must preserve r.
		xt := make([]float64, len(xs))
		for i, x := range xs {
			xt[i] = 2*x + 5
		}
		r3, _ := Pearson(xt, ys)
		return math.Abs(r1-r3) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are a permutation-consistent relabelling — the multiset of
// ranks always sums to n(n+1)/2.
func TestRanksSumProperty(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		ranks := Ranks(xs)
		var sum float64
		for _, r := range ranks {
			sum += r
		}
		n := float64(len(xs))
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(xs, p1)
		v2, err2 := Percentile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		min, max, _ := MinMax(xs)
		return v1 <= v2+1e-9 && v1 >= min-1e-9 && v2 <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// variance returns the population variance of xs (dividing by n, not n-1).
func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}
