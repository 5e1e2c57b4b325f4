package lapack

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// benchLarfb times Q^T*C for an m x k reflector block against an m x n C,
// counting the canonical 4mnk - nk^2 flops of a block-reflector apply.
func benchLarfb(b *testing.B, m, k, n int) {
	b.Helper()
	v := matrix.Random(m, k, 1)
	tau := make([]float64, k)
	t := matrix.New(k, k)
	GEQR3(v, tau, t)
	c := matrix.Random(m, n, 2)
	flops := 4*float64(m)*float64(n)*float64(k) - float64(n)*float64(k)*float64(k)
	Larfb(blas.Trans, v, t, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Larfb(blas.Trans, v, t, c)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// The CAQR update shapes at b = 100: a TSQR leaf (half of a 1400-row
// panel), and a binary-tree node stacking two 100 x 100 R factors.
func BenchmarkLarfbLeaf(b *testing.B) { benchLarfb(b, 700, 100, 100) }
func BenchmarkLarfbNode(b *testing.B) { benchLarfb(b, 200, 100, 100) }
