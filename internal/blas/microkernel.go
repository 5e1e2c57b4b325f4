package blas

// Register-blocked inner kernels of the packed Dgemm. The microkernel
// contract (see doc/KERNELS.md): given an MR-strip of packed op(A), an
// NR-strip of packed op(B) and the depth kc, accumulate the full
// gemmMR x gemmNR register tile into C,
//
//	C[i + j*ldc] += sum_p a[p*MR+i] * b[p*NR+j],
//
// reading only contiguous packed memory. alpha is already folded into the
// packed A strip and beta was applied by the driver, so kernels only ever
// accumulate. Fringe tiles never reach a kernel directly: the macrokernel
// routes them through a zeroed MRxNR buffer and masks the padding on
// write-back, so kernels can assume a full tile unconditionally.

// useAsmKernel selects the architecture-specific assembly microkernel.
// probeAsmKernel (defined per architecture) checks the CPU once at package
// init; tests force the generic path through this variable.
var useAsmKernel = probeAsmKernel()

// gemmKernel dispatches one MR x NR tile update to the best available
// implementation.
func gemmKernel(kc int, a, b, c []float64, ldc int) {
	if useAsmKernel {
		gemmKernelAsm(kc, a, b, c, ldc)
		return
	}
	gemmKernelGeneric(kc, a, b, c, ldc)
}

// trsmSolve finishes one Dtrsm tile (trsm.go): the jb local columns of the
// MR-lane tile, column c at t[tb+c*ldt], solve X*D = T against the local
// diagonal block d (d[c*NR+k] = D(k, c) for k < c, d[c*NR+c] the inverted
// diagonal), overwriting T with X and storing -X column c at
// x[xb+c*ldx]. Strides are signed: a negative one walks a backward sweep's
// columns in reverse.
func trsmSolve(jb int, t []float64, tb, ldt int, d, x []float64, xb, ldx int) {
	if useAsmKernel && jb == gemmNR {
		trsmSolveAsm(t, tb, ldt, d, x, xb, ldx)
		return
	}
	trsmSolveGeneric(jb, t, tb, ldt, d, x, xb, ldx)
}

// trsmSolveGeneric is the portable trsmSolve, also the path for blocks
// narrower than NR.
func trsmSolveGeneric(jb int, t []float64, tb, ldt int, d, x []float64, xb, ldx int) {
	for c := 0; c < jb; c++ {
		col := t[tb+c*ldt : tb+c*ldt+gemmMR]
		for k := 0; k < c; k++ {
			e := d[c*gemmNR+k]
			xk := t[tb+k*ldt : tb+k*ldt+gemmMR]
			for i := range col {
				col[i] -= e * xk[i]
			}
		}
		inv := d[c*gemmNR+c]
		xc := x[xb+c*ldx : xb+c*ldx+gemmMR]
		for i := range col {
			col[i] *= inv
			xc[i] = -col[i]
		}
	}
}

// KernelName identifies the active microkernel implementation, for
// benchmark reports (BENCH_gemm.json) and calibration output.
func KernelName() string {
	if useAsmKernel {
		return asmKernelName
	}
	return "generic-4x4"
}

// gemmKernelGeneric is the portable microkernel: the 8x4 tile is computed
// as two 4x4 halves so that each half's 16 accumulators stay in registers.
// Both halves read the same packed B strip; the second half starts four
// rows into each packed A column.
func gemmKernelGeneric(kc int, a, b, c []float64, ldc int) {
	kernel4x4(kc, a, b, c, ldc)
	kernel4x4(kc, a[4:], b, c[4:], ldc)
}

// kernel4x4 accumulates a 4x4 tile: C[i + j*ldc] += sum_p a[p*MR+i]*b[p*NR+j].
func kernel4x4(kc int, a, b, c []float64, ldc int) {
	var c00, c10, c20, c30 float64
	var c01, c11, c21, c31 float64
	var c02, c12, c22, c32 float64
	var c03, c13, c23, c33 float64
	ia, ib := 0, 0
	for p := 0; p < kc; p++ {
		av := a[ia : ia+4]
		bv := b[ib : ib+4]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1, b2, b3 := bv[0], bv[1], bv[2], bv[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
		ia += gemmMR
		ib += gemmNR
	}
	col := c[0:4]
	col[0] += c00
	col[1] += c10
	col[2] += c20
	col[3] += c30
	col = c[ldc : ldc+4]
	col[0] += c01
	col[1] += c11
	col[2] += c21
	col[3] += c31
	col = c[2*ldc : 2*ldc+4]
	col[0] += c02
	col[1] += c12
	col[2] += c22
	col[3] += c32
	col = c[3*ldc : 3*ldc+4]
	col[0] += c03
	col[1] += c13
	col[2] += c23
	col[3] += c33
}

// macroKernel sweeps the packed mc x kc A panel against the packed kc x nc
// B panel, issuing one microkernel call per MR x NR tile of the C macro
// block. Full tiles update C in place; fringe tiles go through fringeTile.
func macroKernel(mc, nc, kc int, ap, bp, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		bs := bp[jr*kc : jr*kc+gemmNR*kc]
		for ir := 0; ir < mc; ir += gemmMR {
			ib := min(gemmMR, mc-ir)
			as := ap[ir*kc : ir*kc+gemmMR*kc]
			if ib == gemmMR && jb == gemmNR {
				gemmKernel(kc, as, bs, c[jr*ldc+ir:], ldc)
				continue
			}
			fringeTile(kc, as, bs, c[jr*ldc+ir:], ldc, ib, jb)
		}
	}
}

// trmmMacro is macroKernel for a product with a packed triangle E (Dtrmm's
// diagonal blocks): the A strips hold E when triA is set, the B strips
// otherwise, both na deep. A strip of E starting at index x0 is zero
// outside the depth range [x0, na) when E is upper and [0, x0+width) when
// it is lower, so each microkernel call runs over that range only.
func trmmMacro(mc, nc, na int, eUpper, triA bool, ap, bp, c []float64, ldc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		jb := min(gemmNR, nc-jr)
		for ir := 0; ir < mc; ir += gemmMR {
			ib := min(gemmMR, mc-ir)
			x0, w := jr, gemmNR
			if triA {
				x0, w = ir, gemmMR
			}
			p0, p1 := 0, min(na, x0+w)
			if eUpper {
				p0, p1 = x0, na
			}
			as := ap[ir*na+p0*gemmMR : ir*na+p1*gemmMR]
			bs := bp[jr*na+p0*gemmNR : jr*na+p1*gemmNR]
			if ib == gemmMR && jb == gemmNR {
				gemmKernel(p1-p0, as, bs, c[jr*ldc+ir:], ldc)
				continue
			}
			fringeTile(p1-p0, as, bs, c[jr*ldc+ir:], ldc, ib, jb)
		}
	}
}

// fringeTile adds the kc-deep product of one packed A strip and one packed
// B strip to the ib x jb fringe tile of C: the microkernel runs against a
// zeroed MR x NR buffer whose valid region is then added to C, masking the
// packing padding.
func fringeTile(kc int, as, bs, c []float64, ldc, ib, jb int) {
	var tmp [gemmMR * gemmNR]float64
	gemmKernel(kc, as, bs, tmp[:], gemmMR)
	for j := 0; j < jb; j++ {
		dst := c[j*ldc : j*ldc+ib]
		src := tmp[j*gemmMR : j*gemmMR+ib]
		for i, v := range src {
			dst[i] += v
		}
	}
}
