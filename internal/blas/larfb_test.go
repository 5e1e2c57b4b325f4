package blas_test

// Oracle test of lapack.Larfb, the QR consumer of the packed Dtrmm: every
// CAQR trailing update, GEQR3 recursion step and GEQRF/ORMQR block apply
// is a Larfb, and its three Dtrmm calls are where the masked triangle pack
// meets R's storage. It lives in the blas test package so that it runs on
// both microkernel paths (bothKernels).

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
)

// larfbCase is one reflector block: V (m x k) with NaN on and above its
// diagonal, its upper-triangular T with NaN below the diagonal, and the
// explicit m x m Q = I - V T V^T that ORGQR forms from the clean reflectors.
type larfbCase struct {
	v, t, q *matrix.Dense
}

func newLarfbCase(m, k int, seed int64) larfbCase {
	a := matrix.Random(m, k, seed)
	tau := make([]float64, k)
	lapack.GEQR2(a, tau)
	// ORGQR wants the reflectors in an m x m frame to form all of Q; the
	// extra columns carry tau = 0, the identity.
	frame := matrix.New(m, m)
	frame.View(0, 0, m, k).CopyFrom(a)
	ftau := make([]float64, m)
	copy(ftau, tau)
	q := lapack.ORGQR(frame, ftau, m)
	t := matrix.New(k, k)
	lapack.Larft(a, tau, t)
	nan := math.NaN()
	for j := 0; j < k; j++ {
		for i := 0; i <= j; i++ {
			a.Set(i, j, nan) // R's storage, and V's implicit unit diagonal
		}
		for i := j + 1; i < k; i++ {
			t.Set(i, j, nan)
		}
	}
	return larfbCase{v: a, t: t, q: q}
}

// TestLarfbOracle applies Q and Q^T with Larfb at the shapes QR issues —
// k up to the tiled b = 130, crossing the MR/NR fringes, m from the
// square block to a 700-row leaf, n from one column to a full block — and
// compares with the explicit Q: op(Q)*C by baseline.RefGemm. Forming the
// 700 x 700 Qs dominates the run, so -short (the race job) stops at 200 rows.
func TestLarfbOracle(t *testing.T) {
	ks := []int{1, 7, 64, 65, 100, 130}
	ns := []int{1, 5, 100}
	tall := 700
	if testing.Short() {
		tall = 200
	}
	type want struct {
		c, qc, qtc *matrix.Dense
	}
	cases := map[[2]int]larfbCase{}
	wants := map[[3]int]want{}
	seed := int64(1)
	for _, k := range ks {
		for _, m := range []int{k, k + 1, 200, tall} {
			lc := newLarfbCase(m, k, seed)
			seed++
			cases[[2]int{m, k}] = lc
			for _, n := range ns {
				c := matrix.Random(m, n, seed)
				seed++
				w := want{c: c, qc: matrix.New(m, n), qtc: matrix.New(m, n)}
				baseline.RefGemm(blas.NoTrans, blas.NoTrans, m, n, m, 1, lc.q.Data, lc.q.Stride, c.Data, c.Stride, 0, w.qc.Data, w.qc.Stride)
				baseline.RefGemm(blas.Trans, blas.NoTrans, m, n, m, 1, lc.q.Data, lc.q.Stride, c.Data, c.Stride, 0, w.qtc.Data, w.qtc.Stride)
				wants[[3]int{m, k, n}] = w
			}
		}
	}
	bothKernels(t, func(t *testing.T) {
		for key, w := range wants {
			m, k, n := key[0], key[1], key[2]
			lc := cases[[2]int{m, k}]
			for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				exp := w.qc
				if trans == blas.Trans {
					exp = w.qtc
				}
				got := w.c.Clone()
				lapack.Larfb(trans, lc.v, lc.t, got)
				name := fmt.Sprintf("Larfb trans=%v m=%d k=%d n=%d", trans, m, k, n)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						g, e := got.At(i, j), exp.At(i, j)
						if math.IsNaN(g) || math.IsInf(g, 0) || math.Abs(g-e) > 1e-13*float64(m) {
							t.Fatalf("%s: C[%d,%d] = %g, want %g", name, i, j, g, e)
						}
					}
				}
			}
		}
	})
}
