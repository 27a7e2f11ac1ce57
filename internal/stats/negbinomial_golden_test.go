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
