// Package lapack implements the LAPACK-style factorization kernels the
// communication-avoiding algorithms are built from: unblocked, blocked and
// recursive LU with partial pivoting, and unblocked, blocked and recursive
// Householder QR with compact-WY block reflectors.
//
// The routines mirror their LAPACK namesakes (GETF2, GETRF, LASWP, GEQR2,
// GEQRF, LARFT, LARFB, ...) so the higher-level algorithm code reads like
// the paper's pseudo-code. All matrices are column-major *matrix.Dense
// values; factorizations are in place.
package lapack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// ErrSingular is reported when a factorization encounters an exactly zero
// pivot. The factorization is still completed as far as possible, matching
// LAPACK's INFO > 0 convention.
var ErrSingular = errors.New("lapack: matrix is exactly singular")

// GETF2 computes the LU factorization with partial pivoting of the m x n
// matrix a using unblocked BLAS-2 operations (the algorithm behind the
// paper's MKL_dgetf2 baseline). On return a holds L (unit lower, below the
// diagonal) and U; ipiv[k] records that row k was swapped with row ipiv[k]
// (0-based, ipiv[k] >= k). len(ipiv) must be min(m, n).
func GETF2(a *matrix.Dense, ipiv []int) error {
	if k := min(a.Rows, a.Cols); len(ipiv) != k {
		panic(fmt.Errorf("%w: GETF2 ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	return getf2(a.Rows, a.Cols, a.Data, a.Stride, ipiv)
}

// getf2 is GETF2 on the m x n column-major block a with leading dimension
// lda.
func getf2(m, n int, a []float64, lda int, ipiv []int) error {
	var err error
	for j := 0; j < min(m, n); j++ {
		// Find pivot in column j at or below the diagonal.
		col := a[j*lda : j*lda+m]
		p := j + blas.Idamax(m-j, col[j:], 1)
		ipiv[j] = p
		if col[p] == 0 {
			err = ErrSingular
			continue
		}
		swapRows(n, a, lda, j, p)
		// Scale the sub-column to form L(j+1:m, j).
		blas.Dscal(m-j-1, 1/col[j], col[j+1:], 1)
		// Rank-1 update of the trailing submatrix.
		if j < n-1 && j < m-1 {
			blas.Dger(m-j-1, n-j-1, -1, col[j+1:], 1, a[(j+1)*lda+j:], lda, a[(j+1)*lda+j+1:], lda)
		}
	}
	return err
}

// swapRows swaps rows i and p across the n columns of a.
func swapRows(n int, a []float64, lda, i, p int) {
	if i == p {
		return
	}
	for c := 0; c < n; c++ {
		a[c*lda+i], a[c*lda+p] = a[c*lda+p], a[c*lda+i]
	}
}

// RGETF2 computes the same factorization as GETF2 using Toledo's recursive
// algorithm, which performs almost all of its flops in BLAS-3 calls. It is
// the "rgetf2" kernel the paper uses at the leaves of the TSLU reduction
// tree. Requirements and output convention match GETF2.
func RGETF2(a *matrix.Dense, ipiv []int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) != k {
		panic(fmt.Errorf("%w: RGETF2 ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	return rgetf2(m, n, a.Data, a.Stride, ipiv)
}

// rgetf2 is RGETF2 on the m x n column-major block a with leading
// dimension lda. The recursion works on offsets into a, so it allocates
// nothing.
func rgetf2(m, n int, a []float64, lda int, ipiv []int) error {
	k := min(m, n)
	if k == 0 {
		return nil
	}
	if k == 1 || n == 1 {
		// Base case: a single column (or single row) — plain GEPP step.
		return getf2(m, n, a, lda, ipiv)
	}
	nl := k / 2
	var err error
	// Factor the left half recursively, keeping the first failure (LAPACK
	// info convention).
	if e := rgetf2(m, nl, a, lda, ipiv[:nl]); e != nil {
		err = e
	}
	// Apply the left half's interchanges to the right half.
	right := a[nl*lda:]
	for i, p := range ipiv[:nl] {
		swapRows(n-nl, right, lda, i, p)
	}
	// U12 = L11^{-1} A12.
	blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, nl, n-nl, 1, a, lda, right, lda)
	// A22 -= L21 U12.
	blas.Dgemm(blas.NoTrans, blas.NoTrans, m-nl, n-nl, nl, -1, a[nl:], lda, right, lda, 1, right[nl:], lda)
	// Factor the trailing part recursively; an earlier failure wins.
	if e := rgetf2(m-nl, n-nl, right[nl:], lda, ipiv[nl:k]); e != nil && err == nil {
		err = e
	}
	// Fix up pivot indices and pull the interchanges back across the left
	// columns.
	for i := nl; i < k; i++ {
		ipiv[i] += nl
		swapRows(nl, a, lda, i, ipiv[i])
	}
	return err
}

// GETRF computes the LU factorization with partial pivoting of the m x n
// matrix a using the classic blocked right-looking algorithm with panel
// width nb (the algorithm behind the paper's MKL_dgetrf baseline, run
// sequentially). Output convention matches GETF2.
func GETRF(a *matrix.Dense, ipiv []int, nb int) error {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if len(ipiv) != k {
		panic(fmt.Errorf("%w: GETRF ipiv length %d want %d", ErrShape, len(ipiv), k))
	}
	if nb < 1 {
		panic(fmt.Errorf("%w: GETRF block size %d", ErrShape, nb))
	}
	var err error
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		// Factor the panel A[j:m, j:j+jb] with the recursive kernel,
		// keeping the first failure (LAPACK info convention).
		panel := a.View(j, j, m-j, jb)
		if e := RGETF2(panel, ipiv[j:j+jb]); e != nil && err == nil {
			err = e
		}
		// Globalize pivot indices.
		for i := j; i < j+jb; i++ {
			ipiv[i] += j
		}
		// Apply interchanges to the columns left of the panel...
		if j > 0 {
			LASWP(a.View(0, 0, m, j), ipiv[:j+jb], j, j+jb)
		}
		// ...and right of the panel.
		if j+jb < n {
			rest := a.View(0, j+jb, m, n-j-jb)
			LASWP(rest, ipiv[:j+jb], j, j+jb)
			// U12 = L11^{-1} A12.
			l11 := a.View(j, j, jb, jb)
			u12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, u12)
			// A22 -= L21 U12.
			if j+jb < m {
				l21 := a.View(j+jb, j, m-j-jb, jb)
				a22 := a.View(j+jb, j+jb, m-j-jb, n-j-jb)
				blas.Gemm(blas.NoTrans, blas.NoTrans, -1, l21, u12, 1, a22)
			}
		}
	}
	return err
}

// LASWP applies the row interchanges recorded in ipiv[k1:k2] to a, in
// forward order: for k = k1..k2-1, swap rows k and ipiv[k]. Indices in ipiv
// are absolute row indices of a.
func LASWP(a *matrix.Dense, ipiv []int, k1, k2 int) {
	if k1 < 0 || k2 > len(ipiv) || k1 > k2 {
		panic(fmt.Errorf("%w: LASWP range [%d, %d) of %d", ErrShape, k1, k2, len(ipiv)))
	}
	for k := k1; k < k2; k++ {
		if p := ipiv[k]; p != k {
			a.SwapRows(k, p)
		}
	}
}

// LASWPBackward applies the interchanges in reverse order, undoing a prior
// LASWP with the same arguments.
func LASWPBackward(a *matrix.Dense, ipiv []int, k1, k2 int) {
	if k1 < 0 || k2 > len(ipiv) || k1 > k2 {
		panic(fmt.Errorf("%w: LASWPBackward range [%d, %d) of %d", ErrShape, k1, k2, len(ipiv)))
	}
	for k := k2 - 1; k >= k1; k-- {
		if p := ipiv[k]; p != k {
			a.SwapRows(k, p)
		}
	}
}

// IpivToPerm converts a LAPACK-style interchange vector into an explicit
// row permutation p of length m such that factored(i, :) == original(p[i], :).
func IpivToPerm(ipiv []int, m int) []int {
	p := make([]int, m)
	for i := range p {
		p[i] = i
	}
	for k, pk := range ipiv {
		p[k], p[pk] = p[pk], p[k]
	}
	return p
}

// LUSolve solves A*x = b given the in-place LU factorization lu and pivot
// vector ipiv produced by GETF2/RGETF2/GETRF on a square matrix. b is
// overwritten with the solution; it must have lu.Rows rows.
func LUSolve(lu *matrix.Dense, ipiv []int, b *matrix.Dense) {
	if lu.Rows != lu.Cols {
		panic(fmt.Errorf("%w: LUSolve needs square factor, got %dx%d", ErrShape, lu.Rows, lu.Cols))
	}
	if b.Rows != lu.Rows {
		panic(fmt.Errorf("%w: LUSolve rhs rows %d want %d", ErrShape, b.Rows, lu.Rows))
	}
	LASWP(b, ipiv, 0, len(ipiv))
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lu, b)
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu, b)
}

// ExtractLU splits an in-place LU factor into explicit L (m x k, unit
// diagonal) and U (k x n) matrices, k = min(m, n). Useful for verification.
func ExtractLU(a *matrix.Dense) (l, u *matrix.Dense) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	l = matrix.New(m, k)
	u = matrix.New(k, n)
	for j := 0; j < k; j++ {
		l.Set(j, j, 1)
		for i := j + 1; i < m; i++ {
			l.Set(i, j, a.At(i, j))
		}
	}
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, a.At(i, j))
		}
	}
	return l, u
}

// GrowthFactor returns the element growth max|U| / max|A| of an in-place LU
// factorization relative to the original matrix orig. It is the quantity the
// paper's stability discussion (via [12]) is about.
func GrowthFactor(lu *matrix.Dense, orig *matrix.Dense) float64 {
	maxA := orig.MaxAbs()
	if maxA == 0 {
		return 0
	}
	return MaxUpper(lu) / maxA
}

// MaxUpper returns max|U|: the largest magnitude on or above the diagonal
// of an in-place LU factor. It is the single source of the numerator in
// every growth computation — GrowthFactor, stability.Growth and the CALU
// runtime guardrail all divide it by a max|A|.
func MaxUpper(lu *matrix.Dense) float64 {
	k := min(lu.Rows, lu.Cols)
	maxU := 0.0
	for i := 0; i < k; i++ {
		for j := i; j < lu.Cols; j++ {
			if v := math.Abs(lu.At(i, j)); v > maxU {
				maxU = v
			}
		}
	}
	return maxU
}

// GETRI computes the inverse of a square matrix from its in-place LU
// factorization and pivot vector (as produced by GETF2/RGETF2/GETRF),
// LAPACK-style: it solves A * X = I block-column by block-column. Returns a
// fresh n x n matrix; the factor is left untouched.
func GETRI(lu *matrix.Dense, ipiv []int) *matrix.Dense {
	n := lu.Rows
	if n != lu.Cols {
		panic(fmt.Errorf("%w: GETRI needs square factor, got %dx%d", ErrShape, n, lu.Cols))
	}
	inv := matrix.Identity(n)
	const nb = 32
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		cols := inv.View(0, j, n, jb)
		LUSolve(lu, ipiv, cols)
	}
	return inv
}
