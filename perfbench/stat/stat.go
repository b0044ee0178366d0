// Package stat holds the order statistics the benchmark reports: medians,
// quartiles computed exactly as Python's statistics.quantiles(n=4) does,
// and the rule that picks which tail percentile a sample can support.
package stat

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the median of xs (NaN for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// computed here match those computed from the same values in Python. It
// needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := Sorted(xs)
	at := func(i int) float64 {
		// Python clamps j to [1, n-1] before computing delta, so a
		// small sample extrapolates past its ends exactly as here.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// Spread is the interquartile distance as a share of the median.
func Spread(xs []float64) float64 {
	q1, q3, ok := Quartiles(xs)
	med := Median(xs)
	if !ok || med == 0 {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailLadder is the set of tail percentiles the benchmark reports from.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75}

// TailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, or 0 when n < 40: below forty samples
// only the median is reported, since no percentile would be a tail.
func TailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}
