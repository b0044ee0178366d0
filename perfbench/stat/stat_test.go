package stat

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, including its extrapolation on
// samples too small to bracket a quartile.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0.5, 0.7, 0.1, 0.9, 1.3, 0.2, 0.4}, 0.2, 0.9},
	} {
		q1, q3, ok := Quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one value reported ok")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %v, want 1", s)
	}
}

// TestTailPercentileBySampleCount checks the reporting rule: below forty
// samples only the median is reported; above, the highest percentile with
// at least ten samples beyond it.
func TestTailPercentileBySampleCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if q := Quantile(xs, 0.99); q != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", q)
	}
	if q := Quantile(xs, 0.5); q != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", q)
	}
}
