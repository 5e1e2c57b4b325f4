package main

import (
	"math"
	"sort"
)

// luFlops is the canonical flop count of an m x n LU factorization
// (m >= n): mn^2 - n^3/3.
func luFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return fm*fn*fn - fn*fn*fn/3
}

// qrFlops is the canonical flop count of an m x n Householder QR
// factorization (m >= n): 2mn^2 - 2n^3/3.
func qrFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn - 2*fn*fn*fn/3
}

// gflops converts a flop count and a duration in seconds to GFlop/s.
func gflops(flops, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / seconds / 1e9
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
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

// mean is the arithmetic mean of xs; NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tail is a tail percentile together with the evidence behind it.
type tail struct {
	Value float64 // the sample at the percentile
	Pct   float64 // the percentile actually reported, in (0, 1]
	N     int     // the sample count
}

// tailPercentile reports the want-th percentile (nearest rank) of xs, or,
// when fewer than minTail samples would lie beyond it, the highest
// percentile that still has minTail samples beyond it. It never reports
// below the median: when the data support no higher percentile it reports
// the median, as percentile 0.5.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sorted(xs)
	idx := int(math.Ceil(want*float64(n))) - 1
	if beyond := n - 1 - idx; beyond < minTail {
		idx = n - 1 - minTail
	}
	if idx <= (n-1)/2 {
		return tail{Value: median(s), Pct: 0.5, N: n}
	}
	return tail{Value: s[idx], Pct: float64(idx+1) / float64(n), N: n}
}
