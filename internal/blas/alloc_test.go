//go:build !race

// The race detector instruments allocations, so the zero-alloc gates only
// run in the regular test job; the CI alloc-gate step invokes them by name
// (-run ZeroAlloc).

package blas

import (
	"testing"

	"repro/internal/scratch"
)

// TestDgemmZeroAlloc pins the packed Dgemm steady state to zero heap
// allocations: pack buffers come from internal/scratch and go back, and the
// box-pooled headers make the round trip free. This is the runtime
// complement of calint's hotpath-alloc check.
func TestDgemmZeroAlloc(t *testing.T) {
	const n = 512
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	run := func() {
		Dgemm(NoTrans, NoTrans, n, n, n, 1.0, a, n, b, n, 0.0, c, n)
	}
	// Warm the scratch pools (first run allocates the pack buffers and
	// their header boxes; every later run reuses them).
	run()
	run()
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("Dgemm(%d×%d) allocates %.1f objects per call in steady state, want 0", n, n, avg)
	}
}

// TestDtrsmZeroAlloc pins the fused GEMM-TRSM to zero steady-state heap
// allocations at the two shapes CALU issues: the L-block solve (right,
// upper, 50000 x 100) and the U-block solve (left, unit lower, 100 x 400).
// The packed triangle and the -X panel come from internal/scratch.
func TestDtrsmZeroAlloc(t *testing.T) {
	const nb = 100
	tri := make([]float64, nb*nb)
	for i := range tri {
		tri[i] = float64(i%7)*0.01 - 0.03
	}
	for i := 0; i < nb; i++ {
		tri[i*nb+i] = 4
	}
	for _, c := range []struct {
		side Side
		uplo Uplo
		diag Diag
		m, n int
	}{
		{Right, Upper, NonUnit, 50000, nb},
		{Left, Lower, Unit, nb, 400},
	} {
		b := make([]float64, c.m*c.n)
		for i := range b {
			b[i] = float64(i%5) * 0.25
		}
		run := func() {
			Dtrsm(c.side, c.uplo, NoTrans, c.diag, c.m, c.n, 1, tri, nb, b, c.m)
		}
		run()
		run()
		if avg := testing.AllocsPerRun(5, run); avg != 0 {
			t.Fatalf("Dtrsm(side=%v, %d×%d) allocates %.1f objects per call in steady state, want 0", c.side, c.m, c.n, avg)
		}
	}
}

// TestScratchZeroAlloc pins the Get/Put round trip itself to zero
// allocations once the buffer and its header box are pooled.
func TestScratchZeroAlloc(t *testing.T) {
	s := scratch.Get(1 << 12)
	scratch.Put(s)
	if avg := testing.AllocsPerRun(100, func() {
		s := scratch.Get(1 << 12)
		scratch.Put(s)
	}); avg != 0 {
		t.Fatalf("scratch Get/Put allocates %.1f objects per round trip, want 0", avg)
	}
}
