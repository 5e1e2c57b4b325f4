//go:build !race

// The race detector instruments allocations, so the zero-alloc gate only
// runs in the regular test job; the CI alloc-gate step invokes it by name
// (-run ZeroAlloc).

package lapack

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// TestLarfbZeroAlloc pins the block-reflector apply to zero steady-state
// heap allocations at a CAQR leaf shape (V 700 x 100, C 700 x 100): the
// k x n workspace W and every Dgemm/Dtrmm pack buffer come from
// internal/scratch. calint's hotpath-alloc root on Larfb is the static
// half of this gate.
func TestLarfbZeroAlloc(t *testing.T) {
	const m, k, n = 700, 100, 100
	v := matrix.Random(m, k, 1)
	tau := make([]float64, k)
	tf := matrix.New(k, k)
	GEQR3(v, tau, tf)
	c := matrix.Random(m, n, 2)
	for _, trans := range []blas.Transpose{blas.Trans, blas.NoTrans} {
		run := func() { Larfb(trans, v, tf, c) }
		run()
		run()
		if avg := testing.AllocsPerRun(5, run); avg != 0 {
			t.Fatalf("Larfb(trans=%v, %d×%d, n=%d) allocates %.1f objects per call in steady state, want 0", trans, m, k, n, avg)
		}
	}
}
