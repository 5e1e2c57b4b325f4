package blas

import (
	"fmt"

	"repro/internal/scratch"
)

// Level 3 drivers. Dgemm is the packed Goto-style implementation described
// in doc/KERNELS.md: the driver validates shapes, applies beta, then loops
// pack -> macrokernel over cache-sized blocks, with the pack buffers
// recycled through internal/scratch. Dtrsm (trsm.go) is a fused GEMM-TRSM
// on the same packed strips and microkernel: it subtracts the solved part
// of each MR x NR tile with gemmKernel and finishes the tile with a small
// triangular micro-solve. Dtrmm is a blocked driver: each trmmNB-wide
// diagonal block is one packed product against a masked pack of the
// triangle (packTri) on the same microkernel, and all off-diagonal work
// goes through Dgemm. The pre-refactor unpacked
// kernels live on as baseline.RefGemm/RefTrsm/RefTrmm, the
// differential-testing references.

// Register tile of the packed microkernel. These are fixed by the kernel
// implementations (microkernel.go, microkernel_amd64.s); the cache block
// sizes gemmMC/gemmKC/gemmNC are tunable via SetBlockSizes.
const (
	gemmMR = 8 // rows of C per register tile (packed A strip height)
	gemmNR = 4 // columns of C per register tile (packed B strip width)
)

// Cache blocking parameters of the packed Dgemm: the KC x NC panel of
// packed B targets outer cache, the MC x KC panel of packed A inner cache,
// and one KC x NR strip of B streams from L1 while a microkernel runs.
// Defaults are conservative for the ~1 MiB-L2 class of machines this code
// targets; cmd/calibrate -tune searches better values for the host.
var (
	gemmMC = 128  // rows of packed A per macro block (multiple of gemmMR)
	gemmKC = 256  // depth of the rank-kc update
	gemmNC = 4096 // columns of packed B per macro block (multiple of gemmNR)
)

// trmmNB is the diagonal block width of the blocked Dtrmm driver: triangles
// up to this order multiply as one packed product (trmmDiag), larger ones
// split so the off-diagonal products run through Dgemm. It matches the
// default KC depth; doc/KERNELS.md records how it was measured.
const trmmNB = 256

// BlockSizes returns the active cache blocking parameters (MC, KC, NC) of
// the packed Dgemm.
func BlockSizes() (mc, kc, nc int) {
	return gemmMC, gemmKC, gemmNC
}

// SetBlockSizes overrides the cache blocking parameters, rounding mc up to
// a multiple of the MR register tile and nc to a multiple of NR. It is
// meant for calibration (cmd/calibrate -tune) and benchmarking; it must not
// be called concurrently with running kernels.
func SetBlockSizes(mc, kc, nc int) error {
	if mc < gemmMR || kc < 1 || nc < gemmNR {
		return fmt.Errorf("%w: SetBlockSizes mc=%d kc=%d nc=%d (need mc>=%d, kc>=1, nc>=%d)", ErrShape, mc, kc, nc, gemmMR, gemmNR)
	}
	gemmMC = ceilMul(mc, gemmMR)
	gemmKC = kc
	gemmNC = ceilMul(nc, gemmNR)
	return nil
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m x k and
// op(B) is k x n. All matrices are column-major with leading dimensions
// lda, ldb, ldc.
func Dgemm(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	rowA, rowB := m, k
	if transA == Trans {
		rowA = k
	}
	if transB == Trans {
		rowB = n
	}
	if m < 0 || n < 0 || k < 0 || lda < max(1, rowA) || ldb < max(1, rowB) || ldc < max(1, m) {
		panic(fmt.Errorf("%w: Dgemm bad dims m=%d n=%d k=%d lda=%d ldb=%d ldc=%d", ErrShape, m, n, k, lda, ldb, ldc))
	}
	if m == 0 || n == 0 {
		return
	}
	// Scale C by beta first; the packed kernels only accumulate.
	scaleCols(n, m, beta, c, ldc)
	if k == 0 || alpha == 0 {
		return
	}

	// Shrink the cache blocks to the problem so small multiplies do not pay
	// for full-sized pack buffers; strips stay MR/NR aligned.
	mc, kc, nc := gemmMC, gemmKC, gemmNC
	if mc > m {
		mc = ceilMul(m, gemmMR)
	}
	if kc > k {
		kc = k
	}
	if nc > n {
		nc = ceilMul(n, gemmNR)
	}

	ap := scratch.Get(mc * kc)
	defer scratch.Put(ap)
	bp := scratch.Get(kc * nc)
	defer scratch.Put(bp)

	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			boff := jc*ldb + pc
			if transB == Trans {
				boff = pc*ldb + jc
			}
			packB(transB, kcb, ncb, b[boff:], ldb, bp)
			for ic := 0; ic < m; ic += mc {
				mcb := min(mc, m-ic)
				aoff := pc*lda + ic
				if transA == Trans {
					aoff = ic*lda + pc
				}
				packA(transA, mcb, kcb, alpha, a[aoff:], lda, ap)
				macroKernel(mcb, ncb, kcb, ap, bp, c[jc*ldc+ic:], ldc)
			}
		}
	}
}

// scaleCols scales the m-high leading rows of n columns of c by beta
// (beta == 0 overwrites, clearing NaN/Inf).
func scaleCols(n, m int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// Dtrmm computes B = alpha*op(A)*B (side == Left) or B = alpha*B*op(A)
// (side == Right) for triangular A, overwriting B; alpha == 0 sets B to
// zero without reading A. The driver is blocked: diagonal blocks multiply
// on the packed microkernel (trmmDiag) and the off-diagonal contributions
// accumulate through the packed Dgemm, ordered so every block reads only
// not-yet-overwritten parts of B.
func Dtrmm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if m < 0 || n < 0 || lda < max(1, na) || ldb < max(1, m) {
		panic(fmt.Errorf("%w: Dtrmm bad dims m=%d n=%d lda=%d ldb=%d", ErrShape, m, n, lda, ldb))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleCols(n, m, 0, b, ldb)
		return
	}
	if side == Left {
		trmmLeftBlocked(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		return
	}
	trmmRightBlocked(uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

// trmmLeftBlocked computes B = alpha*op(A)*B in place. A block's result
// needs op(A)'s off-diagonal band times *original* B rows, so the block
// order runs toward the band: forward when the band lies below the
// diagonal block (Upper/NoTrans, Lower/Trans), backward otherwise.
func trmmLeftBlocked(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	forward := (uplo == Upper) == (trans == NoTrans)
	for bi := 0; bi < m; bi += trmmNB {
		i0 := bi
		if !forward {
			i0 = (m - bi - 1) / trmmNB * trmmNB
		}
		ib := min(trmmNB, m-i0)
		// Diagonal contribution first: B_i = alpha*op(A_ii)*B_i leaves the
		// off-diagonal operand rows untouched.
		trmmDiag(Left, uplo, trans, diag, ib, n, alpha, a[i0*lda+i0:], lda, b[i0:], ldb)
		rest := m - i0 - ib
		switch {
		case uplo == Upper && trans == NoTrans && rest > 0:
			// B_i += alpha * A[i0:i0+ib, i0+ib:] * B_old[i0+ib:]
			Dgemm(NoTrans, NoTrans, ib, n, rest, alpha, a[(i0+ib)*lda+i0:], lda, b[i0+ib:], ldb, 1, b[i0:], ldb)
		case uplo == Lower && trans == NoTrans && i0 > 0:
			// B_i += alpha * A[i0:i0+ib, 0:i0] * B_old[0:i0]
			Dgemm(NoTrans, NoTrans, ib, n, i0, alpha, a[i0:], lda, b, ldb, 1, b[i0:], ldb)
		case uplo == Upper && trans == Trans && i0 > 0:
			// B_i += alpha * (A[0:i0, i0:i0+ib])^T * B_old[0:i0]
			Dgemm(Trans, NoTrans, ib, n, i0, alpha, a[i0*lda:], lda, b, ldb, 1, b[i0:], ldb)
		case uplo == Lower && trans == Trans && rest > 0:
			// B_i += alpha * (A[i0+ib:, i0:i0+ib])^T * B_old[i0+ib:]
			Dgemm(Trans, NoTrans, ib, n, rest, alpha, a[i0*lda+i0+ib:], lda, b[i0+ib:], ldb, 1, b[i0:], ldb)
		}
	}
}

// trmmRightBlocked computes B = alpha*B*op(A) in place, column blocks
// ordered so each reads only original columns of B.
func trmmRightBlocked(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	forward := (uplo == Lower) == (trans == NoTrans)
	for bj := 0; bj < n; bj += trmmNB {
		j0 := bj
		if !forward {
			j0 = (n - bj - 1) / trmmNB * trmmNB
		}
		jb := min(trmmNB, n-j0)
		trmmDiag(Right, uplo, trans, diag, m, jb, alpha, a[j0*lda+j0:], lda, b[j0*ldb:], ldb)
		rest := n - j0 - jb
		switch {
		case uplo == Upper && trans == NoTrans && j0 > 0:
			// B_j += alpha * B_old[:, 0:j0] * A[0:j0, j0:j0+jb]
			Dgemm(NoTrans, NoTrans, m, jb, j0, alpha, b, ldb, a[j0*lda:], lda, 1, b[j0*ldb:], ldb)
		case uplo == Lower && trans == NoTrans && rest > 0:
			// B_j += alpha * B_old[:, j0+jb:] * A[j0+jb:, j0:j0+jb]
			Dgemm(NoTrans, NoTrans, m, jb, rest, alpha, b[(j0+jb)*ldb:], ldb, a[j0*lda+j0+jb:], lda, 1, b[j0*ldb:], ldb)
		case uplo == Upper && trans == Trans && rest > 0:
			// B_j += alpha * B_old[:, j0+jb:] * (A[j0:j0+jb, j0+jb:])^T
			Dgemm(NoTrans, Trans, m, jb, rest, alpha, b[(j0+jb)*ldb:], ldb, a[(j0+jb)*lda+j0:], lda, 1, b[j0*ldb:], ldb)
		case uplo == Lower && trans == Trans && j0 > 0:
			// B_j += alpha * B_old[:, 0:j0] * (A[j0:j0+jb, 0:j0])^T
			Dgemm(NoTrans, Trans, m, jb, j0, alpha, b, ldb, a[j0:], lda, 1, b[j0*ldb:], ldb)
		}
	}
}

// trmmDiag multiplies one diagonal block in place: B = alpha*op(A)*B on the
// left (A of order m) or B = alpha*B*op(A) on the right (order n), as one
// packed GEMM whose depth is the triangle order. The triangle E is packed
// once by packTri with alpha folded in and zeros outside it: E = op(A) as
// the MR-strip A operand on the left, E = op(A)^T as the NR-strip B operand
// on the right. The in-place operand is staged through its own pack (packB
// of B's columns on the left, packA of B's rows on the right), so B can be
// cleared and the macrokernel accumulates the product straight into it
// (beta = 0).
func trmmDiag(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	left := side == Left
	eTrans := trans
	if !left {
		eTrans = !trans
	}
	eUpper := (uplo == Upper) == (eTrans == NoTrans)
	if left {
		tp := scratch.Get(ceilMul(m, gemmMR) * m)
		defer scratch.Put(tp)
		packTri(gemmMR, eTrans, eUpper, diag, m, alpha, a, lda, tp)
		nc := min(gemmNC, ceilMul(n, gemmNR))
		bp := scratch.Get(m * nc)
		defer scratch.Put(bp)
		for jc := 0; jc < n; jc += nc {
			ncb := min(nc, n-jc)
			packB(NoTrans, m, ncb, b[jc*ldb:], ldb, bp)
			scaleCols(ncb, m, 0, b[jc*ldb:], ldb)
			trmmMacro(m, ncb, m, eUpper, true, tp, bp, b[jc*ldb:], ldb)
		}
		return
	}
	tp := scratch.Get(n * ceilMul(n, gemmNR))
	defer scratch.Put(tp)
	packTri(gemmNR, eTrans, eUpper, diag, n, alpha, a, lda, tp)
	mc := min(gemmMC, ceilMul(m, gemmMR))
	ap := scratch.Get(mc * n)
	defer scratch.Put(ap)
	for ic := 0; ic < m; ic += mc {
		mcb := min(mc, m-ic)
		packA(NoTrans, mcb, n, 1, b[ic:], ldb, ap)
		scaleCols(n, mcb, 0, b[ic:], ldb)
		trmmMacro(mcb, n, n, eUpper, false, ap, tp, b[ic:], ldb)
	}
}

// Dsyrk computes C = alpha*A*A^T + beta*C (trans == NoTrans, A is n x k) or
// C = alpha*A^T*A + beta*C (trans == Trans, A is k x n), updating only the
// uplo triangle of the symmetric n x n matrix C.
func Dsyrk(uplo Uplo, trans Transpose, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	rowA := n
	if trans == Trans {
		rowA = k
	}
	if n < 0 || k < 0 || lda < max(1, rowA) || ldc < max(1, n) {
		panic(fmt.Errorf("%w: Dsyrk bad dims n=%d k=%d lda=%d ldc=%d", ErrShape, n, k, lda, ldc))
	}
	if n == 0 {
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			sum := 0.0
			if trans == NoTrans {
				for p := 0; p < k; p++ {
					sum += a[p*lda+i] * a[p*lda+j]
				}
			} else {
				ai := a[i*lda : i*lda+k]
				aj := a[j*lda : j*lda+k]
				for p := range ai {
					sum += ai[p] * aj[p]
				}
			}
			if beta == 0 {
				c[j*ldc+i] = alpha * sum
			} else {
				c[j*ldc+i] = alpha*sum + beta*c[j*ldc+i]
			}
		}
	}
}
