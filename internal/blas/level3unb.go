package blas

// Unblocked triangular multiplies: the diagonal-block building blocks of the
// blocked Dtrmm driver in level3.go. They operate on triangles of at most
// trmmNB order (cache-resident), so the simple column sweeps here are
// adequate; all O(n^2 m) off-diagonal work happens in the packed Dgemm.
// Shape validation happened in the public driver.

// trmmUnbLeft computes B = alpha*op(A)*B in place for an m x m triangle.
func trmmUnbLeft(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		col := b[j*ldb : j*ldb+m]
		Dtrmv(uplo, trans, diag, m, a, lda, col, 1)
		if alpha != 1 {
			for i := range col {
				col[i] *= alpha
			}
		}
	}
}

// trmmUnbRight computes B = alpha*B*op(A) in place for an n x n triangle,
// processing columns in an order that reads only not-yet-overwritten ones.
func trmmUnbRight(uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	switch {
	case uplo == Upper && trans == NoTrans:
		for j := n - 1; j >= 0; j-- {
			bj := b[j*ldb : j*ldb+m]
			diagV := 1.0
			if diag == NonUnit {
				diagV = a[j*lda+j]
			}
			for i := range bj {
				bj[i] *= alpha * diagV
			}
			for k := 0; k < j; k++ {
				akj := alpha * a[j*lda+k]
				if akj == 0 {
					continue
				}
				bk := b[k*ldb : k*ldb+m]
				for i := range bj {
					bj[i] += akj * bk[i]
				}
			}
		}
	case uplo == Lower && trans == NoTrans:
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			diagV := 1.0
			if diag == NonUnit {
				diagV = a[j*lda+j]
			}
			for i := range bj {
				bj[i] *= alpha * diagV
			}
			for k := j + 1; k < n; k++ {
				akj := alpha * a[j*lda+k]
				if akj == 0 {
					continue
				}
				bk := b[k*ldb : k*ldb+m]
				for i := range bj {
					bj[i] += akj * bk[i]
				}
			}
		}
	case uplo == Upper && trans == Trans:
		for j := 0; j < n; j++ {
			bj := b[j*ldb : j*ldb+m]
			diagV := 1.0
			if diag == NonUnit {
				diagV = a[j*lda+j]
			}
			for i := range bj {
				bj[i] *= alpha * diagV
			}
			for k := j + 1; k < n; k++ {
				ajk := alpha * a[k*lda+j]
				if ajk == 0 {
					continue
				}
				bk := b[k*ldb : k*ldb+m]
				for i := range bj {
					bj[i] += ajk * bk[i]
				}
			}
		}
	default: // Lower, Trans
		for j := n - 1; j >= 0; j-- {
			bj := b[j*ldb : j*ldb+m]
			diagV := 1.0
			if diag == NonUnit {
				diagV = a[j*lda+j]
			}
			for i := range bj {
				bj[i] *= alpha * diagV
			}
			for k := 0; k < j; k++ {
				ajk := alpha * a[k*lda+j]
				if ajk == 0 {
					continue
				}
				bk := b[k*ldb : k*ldb+m]
				for i := range bj {
					bj[i] += ajk * bk[i]
				}
			}
		}
	}
}
