package blas

import (
	"fmt"

	"repro/internal/scratch"
)

// Fused packed GEMM-TRSM (see doc/KERNELS.md). One driver covers all eight
// side/uplo/trans combinations by viewing every solve as a column sweep
//
//	X'(:, c) = (B'(:, c) - sum_{k solved} X'(:, k) * E(k, c)) / E(c, c)
//
// where, for side == Right, X' = X, B' = B and E = op(A); for side == Left,
// X' = X^T, B' = B^T and E = op(A)^T. E is upper triangular when the sweep
// runs forward (solved indices precede c) and lower when it runs backward.
// The two sides differ only in how a tile of B' is read from and written
// to B.
//
// The solve index is cut into NR-wide blocks. Each block's off-diagonal
// part E[solved, J] is packed once per call with packB into an NR strip
// whose depth order is the physical solve order, so the solved set of
// every block — a prefix or a suffix of the index range — is a contiguous
// depth range of the packed -X' strips. The independent dimension (rows of
// B on the right, columns on the left) is cut into cache blocks; within
// one, each block J of the triangle is taken in dependency order and every
// MR x NR tile of B' under it is
//
//  1. updated with the existing microkernel: tile += (-X')[·, solved] * E[solved, J],
//  2. finished with a 4 x 4 triangular micro-solve against the packed
//     diagonal block, whose diagonal is stored inverted; the micro-solve
//     also packs -X' into the tile's MR strip at J's depth.
//
// Full right-side tiles are updated in place in B. Left-side tiles, which
// B stores transposed, and fringe tiles go through a zeroed tile buffer.
// Every pack buffer comes from internal/scratch, so a call allocates nothing.

// Dtrsm solves op(A)*X = alpha*B (side == Left) or X*op(A) = alpha*B
// (side == Right) for X, overwriting B. A is triangular; alpha == 0 sets
// B to zero without reading A.
func Dtrsm(side Side, uplo Uplo, trans Transpose, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	left := side == Left
	na, ni := n, m // triangle order, independent extent
	if left {
		na, ni = m, n
	}
	if m < 0 || n < 0 || lda < max(1, na) || ldb < max(1, m) {
		panic(fmt.Errorf("%w: Dtrsm bad dims m=%d n=%d lda=%d ldb=%d", ErrShape, m, n, lda, ldb))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleCols(n, m, 0, b, ldb)
		return
	}
	if alpha != 1 {
		scaleCols(n, m, alpha, b, ldb)
	}
	if left && n == 1 {
		// A single right-hand side reuses nothing a packed triangle would
		// amortize; the level-2 solve is faster.
		Dtrsv(uplo, trans, diag, m, a, lda, b[:m], 1)
		return
	}
	// E(r, c) is a[pl.eOff(r, c)]: op(A) on the right, op(A)^T on the left.
	eTrans := trans
	if left {
		eTrans = !trans
	}
	pl := trsmPlan{
		eTrans:  eTrans,
		lda:     lda,
		na:      na,
		nq:      (na + gemmNR - 1) / gemmNR,
		forward: (uplo == Upper) == (eTrans == NoTrans),
	}
	nq := pl.nq

	// Pack op(A) once: all off-diagonal strips in dependency order, then
	// the NR x NR diagonal blocks in the same order. A diagonal block is
	// stored in local order (local index c is index pl.phys(c, jb) of the
	// block), which turns every micro-solve into a forward sweep:
	// dq[c*NR+k] = E(j0+phys(k), j0+phys(c)) for k < c, and dq[c*NR+c]
	// holds the inverted diagonal.
	const bs = gemmNR * gemmNR
	stripTotal := 0
	for q := 0; q < nq; q++ {
		_, _, _, d := pl.block(q)
		stripTotal += gemmNR * d
	}
	ep := scratch.Get(stripTotal + nq*bs)
	defer scratch.Put(ep)
	off := 0
	for q := 0; q < nq; q++ {
		j0, jb, s0, d := pl.block(q)
		if d > 0 {
			packB(eTrans, d, jb, a[pl.eOff(s0, j0):], lda, ep[off:off+gemmNR*d])
			off += gemmNR * d
		}
		dq := ep[stripTotal+q*bs : stripTotal+(q+1)*bs]
		for i := range dq {
			dq[i] = 0
		}
		for c := 0; c < jb; c++ {
			jc := j0 + pl.phys(c, jb)
			for k := 0; k < c; k++ {
				dq[c*gemmNR+k] = a[pl.eOff(j0+pl.phys(k, jb), jc)]
			}
			dq[c*gemmNR+c] = 1
			if diag == NonUnit {
				dq[c*gemmNR+c] = 1 / a[pl.eOff(jc, jc)]
			}
		}
	}

	// Cache block of the independent dimension: its packed -X' panel
	// (cb x na) gets the budget of Dgemm's packed A panel (MC x KC).
	cb := max(gemmMR, gemmMC*gemmKC/na/gemmMR*gemmMR)
	cb = min(cb, ceilMul(ni, gemmMR))
	xp := scratch.Get(cb * na)
	defer scratch.Put(xp)

	for i0 := 0; i0 < ni; i0 += cb {
		ib := min(cb, ni-i0)
		off := 0
		for q := 0; q < nq; q++ {
			j0, jb, s0, d := pl.block(q)
			es := ep[off : off+gemmNR*d]
			off += gemmNR * d
			dq := ep[stripTotal+q*bs : stripTotal+(q+1)*bs]
			// Local column c of a tile is column j0+phys(c) of B', and
			// its -X' goes to depth j0+phys(c) of the tile's strip.
			pc, dir := 0, 1
			if !pl.forward {
				pc, dir = jb-1, -1
			}
			for l0 := 0; l0 < ib; l0 += gemmMR {
				lb := min(gemmMR, ib-l0)
				li := i0 + l0
				xs := xp[l0*na : (l0+gemmMR)*na]
				xb := (j0 + pc) * gemmMR
				if !left && lb == gemmMR && jb == gemmNR {
					// Full right-side tile: kernel and solve run in B.
					if d > 0 {
						gemmKernel(d, xs[s0*gemmMR:], es, b[j0*ldb+li:], ldb)
					}
					trsmSolve(jb, b, (j0+pc)*ldb+li, dir*ldb, dq, xs, xb, dir*gemmMR)
					continue
				}
				// Otherwise through a tile buffer whose padded lanes stay zero.
				var t [gemmMR * gemmNR]float64
				tileIO(left, false, &t, b, ldb, li, lb, j0, jb)
				if d > 0 {
					gemmKernel(d, xs[s0*gemmMR:], es, t[:], gemmMR)
				}
				trsmSolve(jb, t[:], pc*gemmMR, dir*gemmMR, dq, xs, xb, dir*gemmMR)
				tileIO(left, true, &t, b, ldb, li, lb, j0, jb)
			}
		}
	}
}

// trsmPlan is one Dtrsm call in the column-sweep form: the storage
// orientation of E, the triangle order na cut into nq NR-wide blocks, and
// the sweep direction.
type trsmPlan struct {
	eTrans  Transpose
	lda     int
	na, nq  int
	forward bool
}

// eOff returns the offset of E(r, c) in a.
func (p trsmPlan) eOff(r, c int) int {
	if p.eTrans == NoTrans {
		return c*p.lda + r
	}
	return r*p.lda + c
}

// block returns the q-th block in dependency order: its first index j0,
// width jb, and solved range [s0, s0+d).
func (p trsmPlan) block(q int) (j0, jb, s0, d int) {
	if !p.forward {
		q = p.nq - 1 - q
	}
	j0 = q * gemmNR
	jb = min(gemmNR, p.na-j0)
	if p.forward {
		return j0, jb, 0, j0
	}
	return j0, jb, j0 + jb, p.na - j0 - jb
}

// phys maps local index c of a jb-wide block to its offset in the block:
// the identity on a forward sweep, reversed on a backward one.
func (p trsmPlan) phys(c, jb int) int {
	if p.forward {
		return c
	}
	return jb - 1 - c
}

// tileIO copies the lb x jb tile t[c*MR+l] = B'(li+l, j0+c) in from B, or
// back out to B when out is set. On the left B' = B^T, so each lane is a
// column of B and the copy transposes.
func tileIO(left, out bool, t *[gemmMR * gemmNR]float64, b []float64, ldb, li, lb, j0, jb int) {
	if !left {
		for c := 0; c < jb; c++ {
			col := b[(j0+c)*ldb+li : (j0+c)*ldb+li+lb]
			if out {
				copy(col, t[c*gemmMR:])
			} else {
				copy(t[c*gemmMR:], col)
			}
		}
		return
	}
	for l := 0; l < lb; l++ {
		row := b[(li+l)*ldb+j0 : (li+l)*ldb+j0+jb]
		if len(row) == gemmNR {
			r := (*[gemmNR]float64)(row)
			if out {
				r[0], r[1], r[2], r[3] = t[l], t[gemmMR+l], t[2*gemmMR+l], t[3*gemmMR+l]
			} else {
				t[l], t[gemmMR+l], t[2*gemmMR+l], t[3*gemmMR+l] = r[0], r[1], r[2], r[3]
			}
			continue
		}
		for c := range row {
			if out {
				row[c] = t[c*gemmMR+l]
			} else {
				t[c*gemmMR+l] = row[c]
			}
		}
	}
}
