// Package stats implements the small statistical toolkit the Tango inference
// engine needs: descriptive statistics, Pearson and rank correlation, simple
// linear fits, and the negative-binomial maximum-likelihood estimator used by
// the flow-table size-probing algorithm (Algorithm 1 of the paper).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the smallest and largest values in xs.
// It returns ErrEmpty if xs is empty.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// shortSample is the longest input Percentile sorts in a copy on its stack;
// a longer one is copied to the heap.
const shortSample = 32

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted, and is left
// as it is.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	var short [shortSample]float64
	s := append(short[:0], xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It returns 0 when either input is constant (zero variance), and
// an error when the lengths differ or fewer than two samples are supplied.
// The policy-probing algorithm uses |Pearson| to find the attribute that best
// explains which flows a switch kept in its cache.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: need at least two samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation between xs and ys, i.e. the
// Pearson correlation of their rank vectors. Ties receive averaged ranks.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: mismatched sample lengths")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs, averaging ranks across
// ties, in the original order of xs.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// LinearFit fits y = a + b·x by least squares and returns the intercept a and
// slope b. It returns an error for fewer than two points or constant x.
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: need at least two samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx float64
	for i := range xs {
		dx := xs[i] - mx
		sxy += dx * (ys[i] - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: constant x")
	}
	b = sxy / sxx
	a = my - b*mx
	return a, b, nil
}

// NegBinomialMLE computes the maximum-likelihood estimate of the cache-hit
// probability p from k independent trials whose i-th trial observed trials[i]
// consecutive cache hits before the first miss. Following §5.2 of the paper,
// with X ~ NB(1, p):
//
//	p̂ = Σx / (k + Σx)
//
// The estimated layer size is then n̂ = m·p̂ where m is the number of
// installed rules. It returns an error when no trials are supplied.
func NegBinomialMLE(trials []int) (float64, error) {
	if len(trials) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range trials {
		if x < 0 {
			return 0, errors.New("stats: negative trial count")
		}
		sum += float64(x)
	}
	k := float64(len(trials))
	return sum / (k + sum), nil
}

// NegBinomialMLESums is NegBinomialMLE over pre-aggregated trials: k trials
// whose run lengths total sum. Sampling loops track the two sufficient
// statistics instead of materialising a trial slice; run counts stay far
// below 2⁵³, so the float64 arithmetic matches the slice form bit for bit.
func NegBinomialMLESums(k, sum int) (float64, error) {
	if k == 0 {
		return 0, ErrEmpty
	}
	if sum < 0 {
		return 0, errors.New("stats: negative trial count")
	}
	s := float64(sum)
	return s / (float64(k) + s), nil
}

// z95 is the standard normal's 97.5th percentile: a two-sided 95% interval
// spans ±z95 standard errors.
const z95 = 1.959963984540054

// NegBinomialInterval is the 95% Wald interval around NegBinomialMLESums'
// p̂ for k trials whose run lengths total sum. The Fisher information of k
// NB(1, p) trials is I(p) = k / (p·(1−p)²), so the interval is
//
//	p̂ ± z·(1−p̂)·√(p̂/k)
//
// clipped to [0, 1]. Both statistics enter through p̂: more trials with the
// same p̂ tighten it as 1/√k. With no runs at all (sum = 0) it collapses to
// [0, 0], where the Wald form carries no information.
func NegBinomialInterval(k, sum int) (lo, hi float64, err error) {
	p, err := NegBinomialMLESums(k, sum)
	if err != nil {
		return 0, 0, err
	}
	half := z95 * (1 - p) * math.Sqrt(p/float64(k))
	return math.Max(0, p-half), math.Min(1, p+half), nil
}
