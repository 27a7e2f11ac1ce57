package stats

import (
	"math"
	"math/rand"
	"testing"
)

// geometricTrials draws k run-lengths of consecutive successes (probability
// p each) before the first failure — the experiment NegBinomialMLE inverts.
func geometricTrials(seed int64, p float64, k int) []int {
	rng := rand.New(rand.NewSource(seed))
	trials := make([]int, k)
	for i := range trials {
		n := 0
		for rng.Float64() < p {
			n++
		}
		trials[i] = n
	}
	return trials
}

// TestNegBinomialMLEGolden pins the estimator bit-for-bit on seeded inputs:
// fixed seeds must keep producing these exact p̂ and n̂ = round(m·p̂) values.
// A change here means the estimator (or the trial-drawing convention)
// changed behaviour, not just jitter.
func TestNegBinomialMLEGolden(t *testing.T) {
	cases := []struct {
		seed     int64
		p        float64 // true success probability behind the draws
		m        int     // installed rules the estimate scales against
		wantPHat float64
		wantNHat int
	}{
		{7, 0.80, 500, 0.7168141592920354, 358},
		{21, 0.50, 200, 0.50387596899224807, 101},
		{99, 0.95, 1024, 0.95444839857651242, 977},
	}
	for _, c := range cases {
		trials := geometricTrials(c.seed, c.p, 64)
		phat, err := NegBinomialMLE(trials)
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		if phat != c.wantPHat {
			t.Errorf("seed %d: p̂ = %.17g, want %.17g", c.seed, phat, c.wantPHat)
		}
		if nhat := int(float64(c.m)*phat + 0.5); nhat != c.wantNHat {
			t.Errorf("seed %d: n̂ = %d, want %d", c.seed, nhat, c.wantNHat)
		}
	}
}

// TestNegBinomialMLEExact checks the closed form p̂ = Σx/(k+Σx) on
// hand-computable inputs.
func TestNegBinomialMLEExact(t *testing.T) {
	cases := []struct {
		trials []int
		want   float64
	}{
		{[]int{0, 0, 0}, 0},                     // all immediate misses: p̂ = 0
		{[]int{1}, 0.5},                         // 1/(1+1)
		{[]int{3, 1}, 2.0 / 3.0},                // 4/(2+4)
		{[]int{9, 9, 9, 9}, 0.9},                // 36/(4+36)
		{[]int{1000000}, 1000000.0 / 1000001.0}, // long runs approach 1
	}
	for _, c := range cases {
		got, err := NegBinomialMLE(c.trials)
		if err != nil {
			t.Fatalf("%v: %v", c.trials, err)
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("NegBinomialMLE(%v) = %.17g, want %.17g", c.trials, got, c.want)
		}
	}
}

// TestNegBinomialIntervalExact checks the Fisher interval
// p̂ ± z·(1−p̂)·√(p̂/k) on hand-computable inputs: its clipping at both ends,
// its collapse when no run was seen, and that quadrupling k at the same p̂
// halves it.
func TestNegBinomialIntervalExact(t *testing.T) {
	cases := []struct {
		k, sum         int
		wantLo, wantHi float64
	}{
		{4, 4, 0.1535240439125805, 0.8464759560874195},         // p̂ = 1/2, half = z/2·√(1/8)
		{100, 300, 0.7075655349721436, 0.7924344650278564},     // p̂ = 3/4, half = z/4·√0.0075
		{400, 1200, 0.7287827674860717, 0.7712172325139283},    // same p̂, four times k: half the width
		{1000, 10, 0.003794860322272868, 0.016007119875746934}, // p̂ = 1/101
		{1, 1, 0, 1},  // clipped at both ends
		{64, 0, 0, 0}, // no runs: p̂ = 0 and a [0, 0] interval
	}
	for _, c := range cases {
		lo, hi, err := NegBinomialInterval(c.k, c.sum)
		if err != nil {
			t.Fatalf("k=%d sum=%d: %v", c.k, c.sum, err)
		}
		if math.Abs(lo-c.wantLo) > 1e-15 || math.Abs(hi-c.wantHi) > 1e-15 {
			t.Errorf("NegBinomialInterval(%d, %d) = [%.17g, %.17g], want [%.17g, %.17g]", c.k, c.sum, lo, hi, c.wantLo, c.wantHi)
		}
	}
	if _, _, err := NegBinomialInterval(0, 0); err != ErrEmpty {
		t.Errorf("k=0: err = %v, want ErrEmpty", err)
	}
}

// TestNegBinomialIntervalCoverage draws 1,000 seeded experiments of 500
// geometric trials at each of three p and counts how often the interval
// holds p: a 95% interval must do so close to 95% of the time.
func TestNegBinomialIntervalCoverage(t *testing.T) {
	for i, p := range []float64{0.25, 0.5, 0.75} {
		covered := 0
		const reps = 1000
		for r := 0; r < reps; r++ {
			sum := 0
			for _, x := range geometricTrials(int64(1000*i+r), p, 500) {
				sum += x
			}
			lo, hi, err := NegBinomialInterval(500, sum)
			if err != nil {
				t.Fatal(err)
			}
			if lo <= p && p <= hi {
				covered++
			}
		}
		t.Logf("p=%v: covered in %d of %d", p, covered, reps)
		if covered < 930 || covered > 970 {
			t.Errorf("p=%v: the interval held p in %d of %d experiments, want 930–970", p, covered, reps)
		}
	}
}
