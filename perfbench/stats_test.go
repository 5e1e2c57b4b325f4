package main

import (
	"math"
	"testing"
)

func TestFlopFormulas(t *testing.T) {
	// Square n x n: LU 2n^3/3, QR 4n^3/3.
	if got, want := luFlops(30, 30), 2.0*27000/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("luFlops(30,30) = %v, want %v", got, want)
	}
	if got, want := qrFlops(30, 30), 4.0*27000/3; math.Abs(got-want) > 1e-9 {
		t.Errorf("qrFlops(30,30) = %v, want %v", got, want)
	}
	// Tall-skinny 100000 x 100: mn^2 - n^3/3 and 2mn^2 - 2n^3/3.
	if got, want := luFlops(100000, 100), 1e9-1e6/3; math.Abs(got-want) > 1 {
		t.Errorf("luFlops(1e5,100) = %v, want %v", got, want)
	}
	if got, want := qrFlops(100000, 100), 2e9-2e6/3; math.Abs(got-want) > 1 {
		t.Errorf("qrFlops(1e5,100) = %v, want %v", got, want)
	}
	// A column vector: LU does m-1 divisions' worth (canonically m - 1/3).
	if got := luFlops(5, 1); math.Abs(got-(5-1.0/3)) > 1e-12 {
		t.Errorf("luFlops(5,1) = %v", got)
	}
	if got := gflops(2e9, 2); got != 1 {
		t.Errorf("gflops(2e9, 2) = %v, want 1", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n       int
		value   float64 // 1-based rank of the reported sample
		pct     float64
		comment string
	}{
		{2000, 1980, 0.99, "p99 has 20 samples beyond it"},
		{1000, 990, 0.99, "p99 has exactly 10 beyond"},
		{500, 490, 0.98, "p99 would leave 5 beyond: fall back to p98"},
		{100, 90, 0.90, "fall back to p90"},
		{22, 12, 12.0 / 22, "just above the median"},
		{21, 11, 0.5, "the median"},
		{20, 10.5, 0.5, "the median, never a lower rank"},
		{5, 3, 0.5, "tiny samples report the median"},
		{1, 1, 0.5, "one sample"},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), 0.99)
		if got.N != c.n || got.Value != c.value || math.Abs(got.Pct-c.pct) > 1e-12 {
			t.Errorf("n=%d (%s): got %+v, want value %v pct %v", c.n, c.comment, got, c.value, c.pct)
		}
		if beyond := c.n - int(got.Value); got.Pct > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if got := tailPercentile(nil, 0.99); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
