package tiled

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// ErrSingular reports a zero pivot during tiled LU.
var ErrSingular = errors.New("tiled: matrix is singular to working precision")

// luOpKind distinguishes the forward-elimination operations recorded for
// later replay when solving systems.
type luOpKind uint8

const (
	opGETRF luOpKind = iota // diagonal-tile GEPP
	opTSTRF                 // stacked [U; tile] GEPP
)

// luOp records one panel elimination step of tiled LU. Incremental pivoting
// never produces a global permutation, so solving requires replaying each
// step's local pivoting and elimination on the right-hand side, in order.
type luOp struct {
	kind luOpKind
	k, i int // panel column; tile row (i == k for opGETRF)
	// fac holds the elimination's L factors: for opGETRF the tile's L is
	// in A itself; for opTSTRF fac is the factored stacked pair (the tile
	// part of L also lands in A, but the rows interleaved into the U tile
	// only live here).
	fac  *matrix.Dense
	ipiv []int
}

// LU is a tiled LU factorization with incremental pivoting.
type LU struct {
	// A holds the factored tiles: U in the upper triangle (genuinely upper
	// triangular), tile L factors below.
	A *matrix.Dense
	// Events is the execution trace, non-nil only when Options.Trace is set.
	Events []sched.Event
	// Graph is the executed task graph.
	Graph *sched.Graph

	g     grid
	ops   []*luOp
	errMu sync.Mutex
	err   error
}

// GETRF computes the tiled LU factorization with incremental pivoting of
// the m x n matrix a (m >= n), in place — the PLASMA_dgetrf stand-in. The
// task graph runs on a private sched.Pool of opt.Workers goroutines, the
// executor core.CALU runs on. A task failure or cancellation of ctx comes
// back as the error, with a partial result that must not be used.
func GETRF(ctx context.Context, a *matrix.Dense, opt Options) (*LU, error) {
	opt.normalize(a.Cols)
	panicIf(a.Rows < a.Cols, "tiled: GETRF needs m >= n, got %dx%d", a.Rows, a.Cols)
	res := &LU{A: a, g: newGrid(a.Rows, a.Cols, opt.TileSize)}
	g := buildLUGraph(res.g, res)
	events, err := sched.Run(ctx, g, opt.Workers, sched.SubmitOptions{Trace: opt.Trace})
	res.Events, res.Graph = events, g
	if err != nil {
		return res, fmt.Errorf("tiled: GETRF execution failed: %w", err)
	}
	return res, res.err
}

// BuildGETRFGraph constructs the tiled-LU task graph unbound (cost
// annotations only) for virtual-time simulation.
func BuildGETRFGraph(m, n int, opt Options) *sched.Graph {
	opt.normalize(n)
	return buildLUGraph(newGrid(m, n, opt.TileSize), nil)
}

// buildLUGraph wires the classic incremental-pivoting DAG:
//
//	GETRF(k,k) -> GESSM(k,j)            j > k
//	TSTRF(k,i) chain down the panel      i > k
//	SSSSM(k,i,j) chains down each column j > k
func buildLUGraph(gr grid, res *LU) *sched.Graph {
	g := sched.NewGraph()
	wt := newWriterTable(gr)
	for k := 0; k < gr.nt; k++ {
		k := k
		r0, c0, rows, cols := gr.tile(k, k)
		kk := min(rows, cols)

		// GETRF on the diagonal tile.
		getrf := &sched.Task{
			Label:    lbl("GETRF k=%d", k),
			Kind:     sched.KindP,
			Priority: tiledPriority(gr.nt, k, bonusPanel),
			Flops:    float64(rows)*float64(cols)*float64(cols) - fcube(cols)/3,
			Class:    sched.ClassBLAS3,
		}
		var getrfOp *luOp
		if res != nil {
			getrfOp = &luOp{kind: opGETRF, k: k, i: k, ipiv: make([]int, kk)}
			res.ops = append(res.ops, getrfOp)
			tile := res.A.View(r0, c0, rows, cols)
			getrf.Run = func() {
				if err := lapack.RGETF2(tile, getrfOp.ipiv); err != nil {
					res.setErr(ErrSingular)
				}
			}
		}
		g.Add(getrf)
		dep(g, getrf, wt.get(k, k))
		wt.set(k, k, getrf)

		// GESSM: apply the diagonal tile's pivoting and L to row tiles.
		gessmTasks := make([]*sched.Task, gr.nt)
		for j := k + 1; j < gr.nt; j++ {
			j := j
			_, jc0, _, jcols := gr.tile(k, j)
			gessm := &sched.Task{
				Label:    lbl("GESSM k=%d j=%d", k, j),
				Kind:     sched.KindU,
				Priority: tiledPriority(gr.nt, j, bonusUpdate),
				Flops:    float64(kk) * float64(kk) * float64(jcols),
				Class:    sched.ClassBLAS3,
			}
			if res != nil {
				c := res.A.View(r0, jc0, rows, jcols)
				diag := res.A.View(r0, c0, rows, cols)
				gessm.Run = func() {
					lapack.LASWP(c, getrfOp.ipiv, 0, kk)
					lkk := diag.View(0, 0, kk, kk)
					blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lkk, c.View(0, 0, kk, jcols))
					if rows > kk {
						// Rectangular diagonal tile (ragged bottom edge).
						blas.Gemm(blas.NoTrans, blas.NoTrans, -1,
							diag.View(kk, 0, rows-kk, kk), c.View(0, 0, kk, jcols), 1,
							c.View(kk, 0, rows-kk, jcols))
					}
				}
			}
			g.Add(gessm)
			dep(g, gessm, getrf, wt.get(k, j))
			wt.set(k, j, gessm)
			gessmTasks[j] = gessm
		}

		// TSTRF chain down the panel, each with its SSSSM updates.
		prevPanel := getrf
		prevUpdate := gessmTasks
		for i := k + 1; i < gr.mt; i++ {
			i := i
			ir0, _, irows, _ := gr.tile(i, k)
			tstrf := &sched.Task{
				Label:    lbl("TSTRF k=%d i=%d", k, i),
				Kind:     sched.KindP,
				Priority: tiledPriority(gr.nt, k, bonusPanel),
				Flops:    float64(cols)*float64(cols)*float64(irows) + fcube(cols)/3,
				Class:    sched.ClassBLAS3,
			}
			var tstrfOp *luOp
			if res != nil {
				tstrfOp = &luOp{kind: opTSTRF, k: k, i: i, ipiv: make([]int, kk)}
				res.ops = append(res.ops, tstrfOp)
				diag := res.A.View(r0, c0, rows, cols)
				tile := res.A.View(ir0, c0, irows, cols)
				tstrf.Run = func() {
					// GEPP of the stacked pair [U_kk; A_ik]. Only the U
					// rows of the diagonal tile participate.
					stack := matrix.New(kk+irows, cols)
					for j := 0; j < cols; j++ {
						dst := stack.Col(j)
						for ii := 0; ii < kk && ii <= j; ii++ {
							dst[ii] = diag.At(ii, j)
						}
						copy(dst[kk:], tile.Col(j))
					}
					if err := lapack.RGETF2(stack, tstrfOp.ipiv); err != nil {
						res.setErr(ErrSingular)
					}
					tstrfOp.fac = stack
					// Write back: updated U into the diagonal tile's upper
					// triangle, multipliers into the sub-diagonal tile.
					for j := 0; j < cols; j++ {
						src := stack.Col(j)
						for ii := 0; ii < kk && ii <= j; ii++ {
							diag.Set(ii, j, src[ii])
						}
						copy(tile.Col(j), src[kk:])
					}
				}
			}
			g.Add(tstrf)
			dep(g, tstrf, prevPanel, wt.get(i, k))
			wt.set(i, k, tstrf)
			// The diagonal tile's U is rewritten, so later readers of
			// (k,k) must follow; record tstrf as its writer.
			wt.set(k, k, tstrf)
			prevPanel = tstrf

			nextUpdate := make([]*sched.Task, gr.nt)
			for j := k + 1; j < gr.nt; j++ {
				j := j
				_, jc0, _, jcols := gr.tile(k, j)
				ssssm := &sched.Task{
					Label:    lbl("SSSSM k=%d i=%d j=%d", k, i, j),
					Kind:     sched.KindS,
					Priority: tiledPriority(gr.nt, j, bonusUpdate),
					Flops:    float64(kk+2*irows) * float64(kk) * float64(jcols),
					Class:    sched.ClassBLAS3,
				}
				if res != nil {
					top := res.A.View(r0, jc0, kk, jcols)
					bot := res.A.View(ir0, jc0, irows, jcols)
					ssssm.Run = func() {
						applyTSTRF(tstrfOp, top, bot)
					}
				}
				g.Add(ssssm)
				dep(g, ssssm, tstrf, prevUpdate[j], wt.get(i, j))
				wt.set(i, j, ssssm)
				wt.set(k, j, ssssm)
				nextUpdate[j] = ssssm
			}
			prevUpdate = nextUpdate
		}
	}
	return g
}

// applyTSTRF replays one TSTRF elimination on a stacked right-hand pair:
// [top; bot] := L^{-1} P [top; bot] using the op's stored factor.
func applyTSTRF(op *luOp, top, bot *matrix.Dense) {
	kk := top.Rows
	n := top.Cols
	stack := matrix.New(kk+bot.Rows, n)
	stack.View(0, 0, kk, n).CopyFrom(top)
	stack.View(kk, 0, bot.Rows, n).CopyFrom(bot)
	lapack.LASWP(stack, op.ipiv, 0, len(op.ipiv))
	l11 := op.fac.View(0, 0, kk, kk)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, stack.View(0, 0, kk, n))
	if bot.Rows > 0 {
		l21 := op.fac.View(kk, 0, bot.Rows, kk)
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, l21, stack.View(0, 0, kk, n), 1, stack.View(kk, 0, bot.Rows, n))
	}
	top.CopyFrom(stack.View(0, 0, kk, n))
	bot.CopyFrom(stack.View(kk, 0, bot.Rows, n))
}

func (lu *LU) setErr(err error) {
	lu.errMu.Lock()
	if lu.err == nil {
		lu.err = err
	}
	lu.errMu.Unlock()
}

// Solve solves A*x = rhs for the factored square matrix, overwriting rhs.
// Incremental pivoting has no global row permutation, so the forward
// elimination is replayed operation by operation before the triangular
// back-substitution.
func (lu *LU) Solve(rhs *matrix.Dense) {
	panicIf(lu.A.Rows != lu.A.Cols, "tiled: Solve needs square matrix, got %dx%d", lu.A.Rows, lu.A.Cols)
	panicIf(rhs.Rows != lu.A.Rows, "tiled: Solve rhs rows %d want %d", rhs.Rows, lu.A.Rows)
	gr := lu.g
	for _, op := range lu.ops {
		r0, _, rows, cols := gr.tile(op.k, op.k)
		kk := min(rows, cols)
		switch op.kind {
		case opGETRF:
			bk := rhs.View(r0, 0, kk, rhs.Cols)
			lapack.LASWP(bk, op.ipiv, 0, kk)
			diag := lu.A.View(r0, r0, kk, kk)
			blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, diag, bk)
		case opTSTRF:
			ir0, _, irows, _ := gr.tile(op.i, op.k)
			applyTSTRF(op, rhs.View(r0, 0, kk, rhs.Cols), rhs.View(ir0, 0, irows, rhs.Cols))
		}
	}
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, lu.A, rhs)
}

func lbl(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
