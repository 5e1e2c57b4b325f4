package tiled

import (
	"context"
	"fmt"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// qrOp records one elimination step of tiled QR for later implicit-Q
// application: the compact-WY reflectors of a GEQRT (diagonal tile) or
// TSQRT (structured triangle-on-square) kernel.
type qrOp struct {
	k, i int // panel column; tile row (i == k for GEQRT)
	// v holds the reflector vectors: for GEQRT a copy of the rows x kk
	// factored tile (R in its upper triangle is ignored on apply); for
	// TSQRT a view of the sub-diagonal tile, which holds the structured
	// V2 tails in place after the elimination.
	v *matrix.Dense
	// t is the compact-WY triangular factor.
	t *matrix.Dense
}

// QR is a tiled QR factorization (flat-tree PLASMA algorithm).
type QR struct {
	// A holds R in its upper triangle; the tiles below hold reflector data.
	A *matrix.Dense
	// Events is the execution trace, non-nil only when Options.Trace is set.
	Events []sched.Event
	// Graph is the executed task graph.
	Graph *sched.Graph

	g   grid
	ops []*qrOp
}

// GEQRF computes the tiled QR factorization of the m x n matrix a (m >= n),
// in place — the PLASMA_dgeqrf stand-in. Executor, context and error
// semantics are those of GETRF.
func GEQRF(ctx context.Context, a *matrix.Dense, opt Options) (*QR, error) {
	opt.normalize(a.Cols)
	panicIf(a.Rows < a.Cols, "tiled: GEQRF needs m >= n, got %dx%d", a.Rows, a.Cols)
	res := &QR{A: a, g: newGrid(a.Rows, a.Cols, opt.TileSize)}
	g := buildQRGraph(res.g, res)
	events, err := sched.Run(ctx, g, opt.Workers, sched.SubmitOptions{Trace: opt.Trace})
	res.Events, res.Graph = events, g
	if err != nil {
		return res, fmt.Errorf("tiled: GEQRF execution failed: %w", err)
	}
	return res, nil
}

// BuildGEQRFGraph constructs the tiled-QR task graph unbound for
// virtual-time simulation.
func BuildGEQRFGraph(m, n int, opt Options) *sched.Graph {
	opt.normalize(n)
	return buildQRGraph(newGrid(m, n, opt.TileSize), nil)
}

// buildQRGraph wires the classic flat-tree tiled QR DAG:
//
//	GEQRT(k,k) -> ORMQR(k,j)             j > k
//	TSQRT(k,i) chain down the panel       i > k
//	TSMQR(k,i,j) chains down each column  j > k
func buildQRGraph(gr grid, res *QR) *sched.Graph {
	g := sched.NewGraph()
	wt := newWriterTable(gr)
	for k := 0; k < gr.nt; k++ {
		r0, c0, rows, cols := gr.tile(k, k)
		kk := min(rows, cols)

		geqrt := &sched.Task{
			Label:    lbl("GEQRT k=%d", k),
			Kind:     sched.KindP,
			Priority: tiledPriority(gr.nt, k, bonusPanel),
			Flops:    2 * float64(cols) * float64(cols) * (float64(rows) - float64(cols)/3),
			Class:    sched.ClassBLAS3,
		}
		var geqrtOp *qrOp
		if res != nil {
			geqrtOp = &qrOp{k: k, i: k}
			res.ops = append(res.ops, geqrtOp)
			tile := res.A.View(r0, c0, rows, cols)
			op := geqrtOp
			geqrt.Run = func() {
				tmat := matrix.New(kk, kk)
				tau := make([]float64, kk)
				if rows >= cols {
					lapack.GEQR3(tile, tau, tmat)
				} else {
					lapack.GEQR2(tile, tau)
					lapack.Larft(tile.View(0, 0, rows, kk), tau[:kk], tmat)
				}
				op.v = tile.View(0, 0, rows, kk).Clone()
				op.t = tmat
			}
		}
		g.Add(geqrt)
		dep(g, geqrt, wt.get(k, k))
		wt.set(k, k, geqrt)

		ormqrTasks := make([]*sched.Task, gr.nt)
		for j := k + 1; j < gr.nt; j++ {
			_, jc0, _, jcols := gr.tile(k, j)
			ormqr := &sched.Task{
				Label:    lbl("ORMQR k=%d j=%d", k, j),
				Kind:     sched.KindU,
				Priority: tiledPriority(gr.nt, j, bonusUpdate),
				Flops:    3 * float64(rows) * float64(kk) * float64(jcols),
				Class:    sched.ClassBLAS3,
			}
			if res != nil {
				c := res.A.View(r0, jc0, rows, jcols)
				op := geqrtOp
				ormqr.Run = func() {
					lapack.Larfb(blas.Trans, op.v, op.t, c)
				}
			}
			g.Add(ormqr)
			dep(g, ormqr, geqrt, wt.get(k, j))
			wt.set(k, j, ormqr)
			ormqrTasks[j] = ormqr
		}

		prevPanel := geqrt
		prevUpdate := ormqrTasks
		for i := k + 1; i < gr.mt; i++ {
			ir0, _, irows, _ := gr.tile(i, k)
			tsqrt := &sched.Task{
				Label:    lbl("TSQRT k=%d i=%d", k, i),
				Kind:     sched.KindP,
				Priority: tiledPriority(gr.nt, k, bonusPanel),
				Flops:    2 * float64(cols) * float64(cols) * float64(irows),
				Class:    sched.ClassBLAS3,
			}
			var tsqrtOp *qrOp
			if res != nil {
				tsqrtOp = &qrOp{k: k, i: i}
				res.ops = append(res.ops, tsqrtOp)
				// kk == cols for diagonal tiles (m >= n), so the R operand
				// is the tile's leading cols x cols upper triangle.
				diagR := res.A.View(r0, c0, cols, cols)
				tile := res.A.View(ir0, c0, irows, cols)
				op := tsqrtOp
				tsqrt.Run = func() {
					// Structured triangle-on-square QR, fully in place: the
					// diagonal tile's R is updated and the sub-diagonal tile
					// is overwritten with the V2 reflector tails.
					tmat := matrix.New(cols, cols)
					lapack.TPQRT(diagR, tile, tmat)
					op.v = tile
					op.t = tmat
				}
			}
			g.Add(tsqrt)
			dep(g, tsqrt, prevPanel, wt.get(i, k))
			wt.set(i, k, tsqrt)
			wt.set(k, k, tsqrt)
			prevPanel = tsqrt

			nextUpdate := make([]*sched.Task, gr.nt)
			for j := k + 1; j < gr.nt; j++ {
				_, jc0, _, jcols := gr.tile(k, j)
				tsmqr := &sched.Task{
					Label:    lbl("TSMQR k=%d i=%d j=%d", k, i, j),
					Kind:     sched.KindS,
					Priority: tiledPriority(gr.nt, j, bonusUpdate),
					Flops:    4 * float64(irows) * float64(cols) * float64(jcols),
					Class:    sched.ClassBLAS3,
				}
				if res != nil {
					top := res.A.View(r0, jc0, kk, jcols)
					bot := res.A.View(ir0, jc0, irows, jcols)
					op := tsqrtOp
					tsmqr.Run = func() {
						lapack.TPMQRT(blas.Trans, op.v, op.t, top, bot)
					}
				}
				g.Add(tsmqr)
				dep(g, tsmqr, tsqrt, prevUpdate[j], wt.get(i, j))
				wt.set(i, j, tsmqr)
				wt.set(k, j, tsmqr)
				nextUpdate[j] = tsmqr
			}
			prevUpdate = nextUpdate
		}
	}
	return g
}

// R returns a copy of the n x n upper-triangular factor.
func (qr *QR) R() *matrix.Dense {
	n := qr.A.Cols
	r := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, qr.A.At(i, j))
		}
	}
	return r
}

// ApplyQT overwrites c (A.Rows x p) with Q^T c, replaying the elimination
// operations in factorization order.
func (qr *QR) ApplyQT(c *matrix.Dense) {
	panicIf(c.Rows != qr.A.Rows, "tiled: ApplyQT rows %d want %d", c.Rows, qr.A.Rows)
	for _, op := range qr.ops {
		qr.applyOp(op, c, blas.Trans)
	}
}

// ApplyQ overwrites c with Q c (reverse replay).
func (qr *QR) ApplyQ(c *matrix.Dense) {
	panicIf(c.Rows != qr.A.Rows, "tiled: ApplyQ rows %d want %d", c.Rows, qr.A.Rows)
	for i := len(qr.ops) - 1; i >= 0; i-- {
		qr.applyOp(qr.ops[i], c, blas.NoTrans)
	}
}

func (qr *QR) applyOp(op *qrOp, c *matrix.Dense, trans blas.Transpose) {
	r0, _, rows, cols := qr.g.tile(op.k, op.k)
	kk := min(rows, cols)
	if op.i == op.k {
		sub := c.View(r0, 0, rows, c.Cols)
		lapack.Larfb(trans, op.v, op.t, sub)
		return
	}
	ir0, _, irows, _ := qr.g.tile(op.i, op.k)
	lapack.TPMQRT(trans, op.v, op.t, c.View(r0, 0, kk, c.Cols), c.View(ir0, 0, irows, c.Cols))
}

// ExplicitQ forms the thin m x n orthogonal factor.
func (qr *QR) ExplicitQ() *matrix.Dense {
	m, n := qr.A.Rows, qr.A.Cols
	q := matrix.New(m, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1)
	}
	qr.ApplyQ(q)
	return q
}

// LeastSquares solves min ||A*x - rhs||_2, returning the n x p solution.
// rhs is overwritten with Q^T rhs.
func (qr *QR) LeastSquares(rhs *matrix.Dense) *matrix.Dense {
	n := qr.A.Cols
	qr.ApplyQT(rhs)
	x := rhs.View(0, 0, n, rhs.Cols).Clone()
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, qr.R(), x)
	return x
}
