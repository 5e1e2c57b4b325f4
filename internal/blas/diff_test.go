package blas_test

// Randomized differential tests pitting the packed Level 3 kernels (and the
// unrolled Dger) against the frozen pre-refactor references in
// internal/baseline. Every case runs on both microkernel paths (assembly
// when the host supports it, and the forced-generic Go kernel), with
// lda/ldb slack so out-of-bounds writes into the padding rows are caught by
// whole-slice comparison.

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/blas"
)

// lcg is a tiny deterministic generator so failures reproduce exactly.
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	// Uniform in [-1, 1).
	return float64(int64(*r>>11))/float64(1<<52) - 1
}

func randSlice(n int, r *lcg) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.next()
	}
	return s
}

// bothKernels runs f once per microkernel path available on this host.
func bothKernels(t *testing.T, f func(t *testing.T)) {
	t.Run("generic", func(t *testing.T) {
		defer blas.ForceGenericKernel(true)()
		f(t)
	})
	if blas.AsmKernelAvailable() {
		t.Run("asm", func(t *testing.T) {
			defer blas.ForceGenericKernel(false)()
			f(t)
		})
	}
}

// closeEnough compares with a tolerance scaled to the accumulation depth.
func closeEnough(got, want, scale float64) bool {
	return math.Abs(got-want) <= 1e-12*(scale+math.Abs(want))
}

// gemmSizes are the differential sweep dimensions: every fringe size the
// issue calls out (1..17 covers MR±1 and NR±1 for the 8x4 tile) plus sizes
// spanning the MC/KC/NC cache-block boundaries.
var gemmSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 31, 100, 129}

func TestDgemmDifferential(t *testing.T) {
	alphas := []float64{1, -0.7, 2.3}
	betas := []float64{0, 1, -1.3}
	bothKernels(t, func(t *testing.T) {
		r := lcg(1)
		caseIdx := 0
		for _, transA := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			for _, transB := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, m := range gemmSizes {
					for _, n := range gemmSizes {
						for _, k := range gemmSizes {
							// Subsample the cube: diagonal-ish cases plus all
							// small-fringe triples keep the sweep fast while
							// still crossing every strip boundary.
							if m > 17 || n > 17 || k > 17 {
								if (m+n+k+caseIdx)%3 != 0 {
									caseIdx++
									continue
								}
							}
							caseIdx++
							alpha := alphas[caseIdx%len(alphas)]
							beta := betas[caseIdx%len(betas)]
							ldSlack := caseIdx % 3 // exercise lda > rows
							rowA, colA := m, k
							if transA == blas.Trans {
								rowA, colA = k, m
							}
							rowB, colB := k, n
							if transB == blas.Trans {
								rowB, colB = n, k
							}
							lda := rowA + ldSlack
							ldb := rowB + ldSlack
							ldc := m + ldSlack
							a := randSlice(lda*colA, &r)
							b := randSlice(ldb*colB, &r)
							c := randSlice(ldc*n, &r)
							want := append([]float64(nil), c...)
							blas.Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
							baseline.RefGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
							for i := range c {
								if !closeEnough(c[i], want[i], float64(k)) {
									t.Fatalf("Dgemm transA=%v transB=%v m=%d n=%d k=%d lda=%d alpha=%g beta=%g: c[%d]=%g want %g",
										transA, transB, m, n, k, lda, alpha, beta, i, c[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	})
}

// triSizes cover every MR/NR fringe of the packed Dtrsm and Dtrmm tiles
// (1..9), the 4-wide diagonal blocks of Dtrsm's solve sweep, and strip
// counts on both sides of a multiple of MR and NR (63..65).
var triSizes = []int{1, 2, 5, 8, 9, 17, 63, 64, 65, 100, 130}

// caluTrsmShapes are the solves CALU issues: the tall right-side L block
// (rows × b) and the wide left-side U block (b × ColsPerTask·b). The
// sizes cross Dtrsm's cache blocks of the independent dimension (320 at
// order 100, 248 at order 130) and end on MR/NR fringes.
var caluTrsmShapes = []struct {
	side blas.Side
	m, n int
}{
	{blas.Right, 257, 100}, {blas.Right, 1000, 100}, {blas.Right, 4099, 100},
	{blas.Right, 257, 130}, {blas.Right, 1000, 130}, {blas.Right, 4099, 130},
	{blas.Left, 100, 100}, {blas.Left, 100, 401}, {blas.Left, 100, 1400},
	{blas.Left, 130, 333},
}

// wellConditioned builds a random na x na triangle-bearing matrix whose
// solves stay differentially comparable: off-diagonals are scaled by 1/na
// so Unit-diag solves grow at most like (1+1/na)^na ~ e, and the stored
// diagonal is shifted away from zero for the NonUnit cases.
func wellConditioned(na, lda int, r *lcg) []float64 {
	a := randSlice(lda*na, r)
	scale := 1 / float64(na)
	for i := range a {
		a[i] *= scale
	}
	for i := 0; i < na; i++ {
		a[i*lda+i] += 2
	}
	return a
}

// checkTrsm runs one Dtrsm case against baseline.RefTrsm, comparing the
// whole B slice so writes into the lda/ldb padding are caught.
func checkTrsm(t *testing.T, r *lcg, side blas.Side, uplo blas.Uplo, trans blas.Transpose, diag blas.Diag, m, n, ldSlack int, alpha float64) {
	t.Helper()
	na := m
	if side == blas.Right {
		na = n
	}
	lda := na + ldSlack
	ldb := m + ldSlack
	a := wellConditioned(na, lda, r)
	b := randSlice(ldb*n, r)
	want := append([]float64(nil), b...)
	blas.Dtrsm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
	baseline.RefTrsm(side, uplo, trans, diag, m, n, alpha, a, lda, want, ldb)
	for i := range b {
		if !closeEnough(b[i], want[i], float64(na)) {
			t.Fatalf("Dtrsm side=%v uplo=%v trans=%v diag=%v m=%d n=%d lda=%d alpha=%g: b[%d]=%g want %g",
				side, uplo, trans, diag, m, n, lda, alpha, i, b[i], want[i])
		}
	}
}

func TestDtrsmDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(2)
		caseIdx := 0
		for _, side := range []blas.Side{blas.Left, blas.Right} {
			for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
				for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
						for _, m := range triSizes {
							for _, n := range triSizes {
								if m > 65 && n > 65 { // caluTrsmShapes covers the large ones
									continue
								}
								caseIdx++
								checkTrsm(t, &r, side, uplo, trans, diag, m, n, caseIdx%3, []float64{1, -0.6, 1.8}[caseIdx%3])
							}
						}
					}
				}
			}
		}
		for _, s := range caluTrsmShapes {
			for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
				for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
						caseIdx++
						checkTrsm(t, &r, s.side, uplo, trans, diag, s.m, s.n, 1+caseIdx%3, []float64{-0.6, 1.8, 0.35}[caseIdx%3])
					}
				}
			}
		}
	})
}

// qrTrmmShapes are the multiplies the QR kernels issue at b = 100 and
// tiled b = 130 — Larfb's left products by V1 and T against a b-column
// block, GEQR3's right product for T12 — plus shapes that cross the
// trmmNB = 256 diagonal blocks once and twice, so the off-diagonal Dgemm
// updates run in every block order.
var qrTrmmShapes = []struct {
	side blas.Side
	m, n int
}{
	{blas.Left, 100, 100}, {blas.Left, 130, 100}, {blas.Right, 100, 50},
	{blas.Left, 257, 13}, {blas.Left, 530, 6}, {blas.Right, 11, 300}, {blas.Right, 5, 517},
}

// checkTrmm runs one Dtrmm case against baseline.RefTrmm. The triangle
// Dtrmm sees has NaN in its unused half, and on its diagonal when diag is
// Unit, as R's storage does in QR, while RefTrmm gets a clean copy; the
// whole B slice is compared, so a NaN that leaks or a write into the
// lda/ldb padding fails the case.
func checkTrmm(t *testing.T, r *lcg, side blas.Side, uplo blas.Uplo, trans blas.Transpose, diag blas.Diag, m, n, ldSlack int, alpha float64) {
	t.Helper()
	na := m
	if side == blas.Right {
		na = n
	}
	lda := na + ldSlack
	ldb := m + ldSlack
	clean := wellConditioned(na, lda, r)
	a := append([]float64(nil), clean...)
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			unused := (uplo == blas.Upper && i > j) || (uplo == blas.Lower && i < j)
			if unused || (i == j && diag == blas.Unit) {
				a[j*lda+i] = math.NaN()
			}
		}
	}
	b := randSlice(ldb*n, r)
	want := append([]float64(nil), b...)
	blas.Dtrmm(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
	baseline.RefTrmm(side, uplo, trans, diag, m, n, alpha, clean, lda, want, ldb)
	for i := range b {
		if !closeEnough(b[i], want[i], float64(na)) {
			t.Fatalf("Dtrmm side=%v uplo=%v trans=%v diag=%v m=%d n=%d lda=%d alpha=%g: b[%d]=%g want %g",
				side, uplo, trans, diag, m, n, lda, alpha, i, b[i], want[i])
		}
	}
}

func TestDtrmmDifferential(t *testing.T) {
	bothKernels(t, func(t *testing.T) {
		r := lcg(3)
		caseIdx := 0
		for _, side := range []blas.Side{blas.Left, blas.Right} {
			for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
				for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
						for _, m := range triSizes {
							for _, n := range triSizes {
								if m > 65 && n > 65 { // qrTrmmShapes covers the large ones
									continue
								}
								caseIdx++
								checkTrmm(t, &r, side, uplo, trans, diag, m, n, caseIdx%3, []float64{1, -0.6, 1.8}[caseIdx%3])
							}
						}
					}
				}
			}
		}
		for _, s := range qrTrmmShapes {
			for _, uplo := range []blas.Uplo{blas.Upper, blas.Lower} {
				for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					for _, diag := range []blas.Diag{blas.NonUnit, blas.Unit} {
						caseIdx++
						checkTrmm(t, &r, s.side, uplo, trans, diag, s.m, s.n, 1+caseIdx%3, []float64{-0.6, 1.8, 0.35}[caseIdx%3])
					}
				}
			}
		}
	})
}

// TestDgerDifferential pits the 4-column unrolled Dger against a naive
// rank-1 loop, covering the unroll tail and strided y.
func TestDgerDifferential(t *testing.T) {
	r := lcg(4)
	for caseIdx, dims := range [][2]int{{1, 1}, {3, 4}, {7, 5}, {8, 8}, {17, 13}, {100, 31}, {129, 65}} {
		m, n := dims[0], dims[1]
		for _, incY := range []int{1, 2} {
			lda := m + caseIdx%3
			alpha := []float64{1, -0.8, 2.1}[caseIdx%3]
			x := randSlice(m, &r)
			y := randSlice(n*incY, &r)
			a := randSlice(lda*n, &r)
			want := append([]float64(nil), a...)
			blas.Dger(m, n, alpha, x, 1, y, incY, a, lda)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					want[j*lda+i] += alpha * x[i] * y[j*incY]
				}
			}
			for i := range a {
				if !closeEnough(a[i], want[i], 1) {
					t.Fatalf("Dger m=%d n=%d incY=%d alpha=%g: a[%d]=%g want %g", m, n, incY, alpha, i, a[i], want[i])
				}
			}
		}
	}
}
