package blas

// Packing layer of the Goto-style Dgemm (see doc/KERNELS.md).
//
// The driver partitions C into MC x NC macro-tiles updated by rank-KC
// products. Before the microkernel runs, the corresponding MC x KC block of
// op(A) and KC x NC block of op(B) are copied once into contiguous,
// kernel-shaped scratch buffers:
//
//   - op(A) blocks become row panels of gemmMR-high strips: strip s holds
//     rows [s*MR, s*MR+MR) and stores, for each depth index p, the MR row
//     values contiguously (buf[s*MR*kc + p*MR + i]). alpha is folded in
//     during the copy, so it is applied exactly once per element.
//   - op(B) blocks become column panels of gemmNR-wide strips: strip s
//     holds columns [s*NR, s*NR+NR) and stores, for each p, the NR column
//     values contiguously (buf[s*NR*kc + p*NR + j]).
//
// Fringe strips are zero-padded to the full MR/NR width so the microkernel
// never sees a partial strip; the macrokernel masks the padded rows/columns
// when writing C back. Both packing directions handle NoTrans and Trans
// sources, which is what lets all four Dgemm transpose variants — and the
// Dtrsm/Dtrmm gemm-updates built on them — share the one packed path.

// packA packs the mc x kc block of op(A) whose (0,0) element is a[0] into
// MR-strip format, scaling by alpha. For trans == NoTrans, op(A)[i,p] is
// a[p*lda+i]; for trans == Trans it is a[i*lda+p]. buf must hold at least
// ceilMul(mc, gemmMR)*kc elements; padded rows are zeroed.
func packA(trans Transpose, mc, kc int, alpha float64, a []float64, lda int, buf []float64) {
	for ir := 0; ir < mc; ir += gemmMR {
		ib := min(gemmMR, mc-ir)
		dst := buf[ir*kc : ir*kc+gemmMR*kc]
		if trans == NoTrans {
			// Source columns are contiguous over the row index.
			for p := 0; p < kc; p++ {
				src := a[p*lda+ir : p*lda+ir+ib]
				d := dst[p*gemmMR : p*gemmMR+gemmMR]
				for i, v := range src {
					d[i] = alpha * v
				}
				for i := ib; i < gemmMR; i++ {
					d[i] = 0
				}
			}
			continue
		}
		// Trans: op(A) row i is the contiguous source row a[(ir+i)*lda:].
		if ib < gemmMR {
			for i := range dst {
				dst[i] = 0
			}
		}
		for i := 0; i < ib; i++ {
			src := a[(ir+i)*lda : (ir+i)*lda+kc]
			for p, v := range src {
				dst[p*gemmMR+i] = alpha * v
			}
		}
	}
}

// packB packs the kc x nc block of op(B) whose (0,0) element is b[0] into
// NR-strip format. For trans == NoTrans, op(B)[p,j] is b[j*ldb+p]; for
// trans == Trans it is b[p*ldb+j]. buf must hold at least
// kc*ceilMul(nc, gemmNR) elements; padded columns are zeroed.
func packB(trans Transpose, kc, nc int, b []float64, ldb int, buf []float64) {
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		dst := buf[jr*kc : jr*kc+gemmNR*kc]
		if trans == NoTrans {
			// op(B) column j is the contiguous source column b[(jr+j)*ldb:].
			if jb < gemmNR {
				for i := range dst {
					dst[i] = 0
				}
			}
			for j := 0; j < jb; j++ {
				src := b[(jr+j)*ldb : (jr+j)*ldb+kc]
				for p, v := range src {
					dst[p*gemmNR+j] = v
				}
			}
			continue
		}
		// Trans: for fixed p the NR column values are contiguous in the
		// source row b[p*ldb+jr:].
		for p := 0; p < kc; p++ {
			src := b[p*ldb+jr : p*ldb+jr+jb]
			d := dst[p*gemmNR : p*gemmNR+gemmNR]
			for j, v := range src {
				d[j] = v
			}
			for j := jb; j < gemmNR; j++ {
				d[j] = 0
			}
		}
	}
}

// ceilMul rounds n up to the next multiple of q.
func ceilMul(n, q int) int {
	return (n + q - 1) / q * q
}

// packTri packs the na x na triangle E, scaled by alpha, into w-wide strips
// of depth na — the packA format for w == MR, packB's for w == NR — with
// E(x, p) at buf[x0*na + p*w + x-x0] for the strip starting at x0. E is
// read from a as E(x, p) = a[p*lda+x] (eTrans == NoTrans) or a[x*lda+p],
// and is upper (nonzero for x <= p) when eUpper is set, lower otherwise.
// Entries outside the triangle and the padding lanes are written as zeros
// and a Unit diagonal as alpha, so the other half of A (in QR, R's storage)
// and a Unit diagonal are never read and NaN or Inf there cannot reach the
// product.
func packTri(w int, eTrans Transpose, eUpper bool, diag Diag, na int, alpha float64, a []float64, lda int, buf []float64) {
	for x0 := 0; x0 < na; x0 += w {
		xb := min(w, na-x0)
		dst := buf[x0*na : x0*na+w*na]
		clear(dst)
		if eTrans == NoTrans {
			// Column p of a holds E(·, p): lanes [lo, hi) of depth p are
			// its off-diagonal entries in this strip.
			for p := 0; p < na; p++ {
				lo, hi := 0, min(xb, p-x0)
				if !eUpper {
					lo, hi = max(0, p-x0+1), xb
				}
				d := dst[p*w : p*w+w]
				for l := lo; l < hi; l++ {
					d[l] = alpha * a[p*lda+x0+l]
				}
			}
		} else {
			// Column x of a holds E(x, ·): lane x's off-diagonal depths
			// are (x, na) for an upper E and [0, x) for a lower one.
			for l := 0; l < xb; l++ {
				x := x0 + l
				p0, p1 := x+1, na
				if !eUpper {
					p0, p1 = 0, x
				}
				for p, v := range a[x*lda+p0 : x*lda+p1] {
					dst[(p0+p)*w+l] = alpha * v
				}
			}
		}
		for l := 0; l < xb; l++ {
			x := x0 + l
			dst[x*w+l] = alpha
			if diag == NonUnit {
				dst[x*w+l] *= a[x*lda+x]
			}
		}
	}
}
