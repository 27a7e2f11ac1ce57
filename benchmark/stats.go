package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Robust summaries for timing samples. Every function copies before sorting,
// so callers may keep their sample buffers in arrival order.

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is set by a handful of outliers and moves
// from run to run.
const minBeyond = 10

var errNoSamples = errors.New("stats: no samples")

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples for an
// even count). It is NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which is the
// rule the benchmark driver uses for run-to-run spread. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stats: quartiles need 2 samples, have %d", n)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure a metric's bound is judged against.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, errors.New("stats: spread of a zero median")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between order statistics, together with how many samples lie
// strictly beyond it. It refuses a percentile with fewer than minBeyond
// samples beyond it; the value is still returned so a caller that must print
// something can say how thin the tail was.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return math.NaN(), 0, errNoSamples
	}
	if p <= 0 || p >= 100 {
		return math.NaN(), 0, fmt.Errorf("stats: percentile %v outside (0,100)", p)
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	v = s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minBeyond {
		err = fmt.Errorf("stats: p%g of %d samples has %d beyond it, need %d", p, len(s), beyond, minBeyond)
	}
	return v, beyond, err
}

// trimmedMean drops the lowest and highest frac of the samples (0 <= frac <
// 0.5) and averages the rest.
func trimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 || frac < 0 || frac >= 0.5 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(frac * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// medianRate is throughput from the median op time rather than from
// total/elapsed: work units per second when one op completing `work` units
// takes the median of opSeconds. One slow second on a shared host moves
// total/elapsed; it does not move this.
func medianRate(work float64, opSeconds []float64) float64 {
	m := median(opSeconds)
	if !(m > 0) {
		return math.NaN()
	}
	return work / m
}
