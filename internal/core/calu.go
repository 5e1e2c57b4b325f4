package core

import (
	"context"
	"fmt"

	"repro/internal/abft"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/tslu"
)

// LUResult is the outcome of a CALU factorization.
type LUResult struct {
	// A holds the in-place factors: L unit lower (below the diagonal) and
	// U upper, with row interchanges already applied (so P*Aorig = L*U).
	A *matrix.Dense
	// Swaps holds one swap list per iteration, with absolute row indices;
	// iteration K's list starts at row K*b. Together they define P.
	Swaps [][]int
	// Events is the execution trace, non-nil only when Options.Trace is set.
	Events []sched.Event
	// Graph is the executed task graph (retained for inspection).
	Graph *sched.Graph
	// FallbackPanels lists the iterations whose panel the pivot-growth
	// guardrail re-factored with GEPP (see Options.GrowthThreshold), in
	// ascending order. Empty when the guardrail is off or never tripped.
	FallbackPanels []int
	// RecomputedPanels lists the iterations whose panel verify mode
	// (Options.Verify) recomputed in place after a checksum mismatch, in
	// ascending order. Empty when verify is off or nothing was corrupted.
	RecomputedPanels []int
}

// ApplyPerm applies the factorization's full row permutation P to b
// (b := P*b), as needed to solve A x = y via L U x = P y.
func (r *LUResult) ApplyPerm(b *matrix.Dense) {
	for k, sw := range r.Swaps {
		tslu.ApplyPivots(b, sw, r.swapOrigin(k))
	}
}

// swapOrigin returns the row at which iteration k's swaps anchor.
func (r *LUResult) swapOrigin(k int) int {
	at := 0
	for i := 0; i < k; i++ {
		at += len(r.Swaps[i])
	}
	return at
}

// Solve solves A*x = rhs for square factored A, overwriting rhs with x.
func (r *LUResult) Solve(rhs *matrix.Dense) {
	if r.A.Rows != r.A.Cols {
		panic(fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, r.A.Rows, r.A.Cols))
	}
	r.ApplyPerm(rhs)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, r.A, rhs)
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, r.A, rhs)
}

// CALU computes the communication-avoiding LU factorization with tournament
// pivoting of the m x n matrix a, in place, using the multithreaded
// Algorithm 1 of the paper: dynamic scheduling of P/L/U/S tasks with
// look-ahead priorities. The task graph runs on pool, shared with any
// concurrent submissions; a nil pool runs it on a private pool of
// opt.Workers goroutines, closed before CALU returns. It returns an error
// wrapping ErrShape for malformed inputs and one wrapping ErrSingular if a
// panel is rank deficient.
//
// Cancellation of ctx is observed between tasks: tasks already executing
// finish, the rest drain unrun, and the returned error wraps ctx's error.
// A non-nil result accompanying an error is partial and must not be used.
// The pool and its other submissions are unaffected, and no
// internal/scratch workspace outlives the task that acquired it.
//
// Wide matrices (m < n) are handled LAPACK-style: the leading m x m block
// is factored, and the remaining columns are overwritten with
// U(:, m:) = L^{-1} P A(:, m:).
func CALU(ctx context.Context, a *matrix.Dense, opt Options, pool *sched.Pool) (*LUResult, error) {
	if a != nil && a.Rows < a.Cols {
		// The trailing columns never enter the task graph; scan them here.
		if _, _, err := checkInput(a, false); err != nil {
			return nil, err
		}
		left := a.View(0, 0, a.Rows, a.Rows)
		res, err := CALU(ctx, left, opt, pool)
		if err != nil {
			return nil, err
		}
		res.A = a
		right := a.View(0, a.Rows, a.Rows, a.Cols-a.Rows)
		for k, sw := range res.Swaps {
			tslu.ApplyPivots(right, sw, res.swapOrigin(k))
		}
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, left, right)
		return res, nil
	}
	p, err := PrepareCALU(a, opt)
	if err != nil {
		return nil, err
	}
	events, runErr := runGraph(ctx, p.b.g, p.b.opt, pool)
	res, err := p.Finish(runErr)
	res.Events, res.Graph = events, p.b.g
	return res, err
}

// BuildCALUGraph constructs the CALU task graph for an m x n matrix without
// binding numeric work: tasks carry only flop counts, kernel classes and
// priorities. Package simsched executes such graphs in virtual time for the
// paper-scale modeled experiments. It panics on malformed dimensions, since
// the experiment code that calls it is in full control of them.
func BuildCALUGraph(m, n int, opt Options) *sched.Graph {
	if err := opt.normalize(m, n); err != nil {
		panic(err)
	}
	b := newCALUBuilder(m, n, &opt)
	b.build()
	return b.g
}

// caluBuilder holds graph-construction state for one CALU factorization.
type caluBuilder struct {
	builder

	// Binding state; nil for graph-only builds.
	swaps    [][]int
	errs     []error
	fellBack []bool // per iteration: growth guardrail took the GEPP path

	// Verify-mode state (nil / zero unless Options.Verify is set and the
	// builder is bound). vsums accumulates the finished L columns' sums,
	// one panel per V task (the V tasks form a chain, so vsums needs no
	// lock). nRecomp is only touched by finalize tasks, which are
	// transitively ordered.
	vsums      []float64
	vprev      *sched.Task // previous panel's V task (chain)
	vpoison    bool        // a singular panel invalidated the checksum chain
	nRecomp    int         // panel recomputations spent against MaxPanelRecomputes
	recomputed []bool      // per iteration: panel recomputed after corruption
}

// vtol is the absolute checksum tolerance: predicted and actual column sums
// agree to roughly machine precision times the sum's own magnitude (at most
// m entries of size max|A|, times modest growth), so VerifyTolerance * m *
// max|A| leaves orders of magnitude of slack below any injected fault.
func (b *caluBuilder) vtol() float64 {
	return b.opt.VerifyTolerance * float64(b.m) * b.maxA
}

// taintedBefore reports whether any panel before k failed: a rank-deficient
// panel leaves the trailing matrix meaningless (the zero-diagonal Trsm
// produces non-finite values), so downstream checksum gates must not
// misreport the wreckage as corruption. Finalize tasks are transitively
// ordered, so reading earlier panels' errors here is race-free.
func (b *caluBuilder) taintedBefore(k int) bool {
	for j := 0; j < k; j++ {
		if b.errs[j] != nil {
			return true
		}
	}
	return false
}

func newCALUBuilder(m, n int, opt *Options) *caluBuilder {
	b := &caluBuilder{builder: newBuilder(m, n, opt)}
	b.swaps = make([][]int, b.nb)
	b.errs = make([]error, b.nb)
	b.fellBack = make([]bool, b.nb)
	return b
}

func (b *caluBuilder) build() {
	for k := 0; k < b.nb; k++ {
		b.buildIteration(k)
	}
}

func (b *caluBuilder) buildIteration(k int) {
	opt := b.opt
	r0, _ := b.colRange(k)
	c0, c1 := b.colRange(k)
	w := c1 - c0
	mr := b.m - r0 // active rows

	// --- Panel preprocessing: tournament over Tr block rows (tasks P). ---
	blocks := tslu.Partition(mr, opt.PanelThreads)
	nLeaves := len(blocks)
	// Candidate slots: leaves first, merge results appended after.
	var cands []*tslu.Candidates
	if b.a != nil {
		cands = make([]*tslu.Candidates, nLeaves, 2*nLeaves)
	}

	leafTasks := make([]*sched.Task, nLeaves)
	leafK := make([]int, nLeaves) // candidate row counts per slot
	for i, blk := range blocks {
		i := i
		lo, hi := r0+blk[0], r0+blk[1]
		rows := hi - lo
		kk := min(rows, w)
		leafK[i] = kk
		t := &sched.Task{
			Label:    fmt.Sprintf("P k=%d leaf=%d", k, i),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusP),
			Flops:    luFlops(rows, w),
			Class:    sched.ClassRecursive,
			Rows:     rows,
		}
		if b.a != nil {
			block := b.a.View(lo, c0, rows, w)
			t.Run = func() { cands[i] = tslu.Leaf(block, lo) }
			// The candidate rows are what flows up the tournament; the root
			// node's Out is overridden below to its composite factor.
			t.Out = func() []float64 { return candRows(cands, i) }
		}
		b.g.Add(t)
		b.dep(t, b.fronts[k].read(lo, hi)...)
		leafTasks[i] = t
	}

	// Reduction tree (tasks P at inner nodes). The merge schedule comes
	// from tslu.PlanReduction, so binary, flat and hybrid trees all flow
	// through the same task construction.
	type nodeRef struct {
		task *sched.Task
		slot int // index into cands
		k    int // candidate rows
	}
	nodes := make([]nodeRef, nLeaves)
	for i := range leafTasks {
		nodes[i] = nodeRef{task: leafTasks[i], slot: i, k: leafK[i]}
	}
	for _, st := range tslu.PlanReduction(nLeaves, opt.Tree) {
		total := 0
		deps := make([]*sched.Task, len(st.In))
		ins := make([]int, len(st.In))
		for i, idx := range st.In {
			total += nodes[idx].k
			deps[i] = nodes[idx].task
			ins[i] = nodes[idx].slot
		}
		slot := -1
		if b.a != nil {
			cands = append(cands, nil)
			slot = len(cands) - 1
		}
		t := &sched.Task{
			Label:    fmt.Sprintf("P k=%d merge out=%d", k, st.Out),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusP),
			Flops:    luFlops(total, w),
			Class:    sched.ClassRecursive,
			Rows:     total,
		}
		if b.a != nil {
			t.Run = func() {
				cs := make([]*tslu.Candidates, len(ins))
				for i, s := range ins {
					cs[i] = cands[s]
				}
				cands[slot] = tslu.MergeMany(cs)
			}
			t.Out = func() []float64 { return candRows(cands, slot) }
		}
		b.g.Add(t)
		b.dep(t, deps...)
		nodes = append(nodes, nodeRef{task: t, slot: slot, k: min(total, w)})
	}
	rootRef := nodes[len(nodes)-1]
	if b.a != nil {
		// The tournament root's consequential output is its composite factor
		// (finalize reads Fac and Idx; a root's candidate rows go nowhere).
		rootSlot := rootRef.slot
		rootRef.task.Out = func() []float64 {
			if c := cands[rootSlot]; c != nil {
				return c.Fac.Data
			}
			return nil
		}
	}

	// --- Finalize: build swaps, pivot the panel, write the composite. ---
	fin := &sched.Task{
		Label:    fmt.Sprintf("F k=%d", k),
		Kind:     sched.KindP,
		Priority: priority(opt, b.nb, k, k, bonusFinalize),
		Flops:    float64(w * w), // swap bookkeeping + composite copy
		Class:    sched.ClassSmall,
	}
	if b.a != nil {
		rootSlot := rootRef.slot
		t := fin
		t.Run = func() {
			root := cands[rootSlot]
			// ABFT gate: before anything is written back, the tournament's
			// composite must reproduce the column sums of the winner rows it
			// claims to factor — those rows are still pristine in a, so a
			// mismatch means silent corruption somewhere in the reduction
			// tree, and the panel can be recomputed locally from source. A
			// rank-deficient earlier panel leaves the trailing matrix
			// non-finite, so the gate goes inert then (like the V chain)
			// rather than converting the permanent ErrSingular into a
			// retryable ErrCorrupted.
			if b.verifyOn() && !b.taintedBefore(k) && !abft.VerifyLUPanel(b.a, root.Idx, root.Fac, c0, b.vtol()) {
				if cb := b.opt.OnCorruption; cb != nil {
					cb(k)
				}
				if b.opt.MaxPanelRecomputes < 0 || b.nRecomp >= b.opt.MaxPanelRecomputes {
					panic(fmt.Errorf("%w: CALU panel %d composite checksum mismatch, recompute budget exhausted", ErrCorrupted, k))
				}
				b.nRecomp++
				b.recomputed[k] = true
				t.Label += " [abft-recompute]"
				b.geppFallback(k, r0, c0, w)
				if cb := b.opt.OnPanelRecompute; cb != nil {
					cb(k)
				}
				return
			}
			// Pivot-growth guardrail: tournament pivoting's growth bound
			// (2^(b*H)) is weaker than GEPP's, so when the composite's
			// max|U| blows past the threshold the whole panel is
			// re-factored with straight partial pivoting instead. The
			// tournament tasks never wrote to a (they factor pooled scratch
			// copies), so the panel is still pristine here.
			if thr := b.opt.GrowthThreshold; thr > 0 && b.maxA > 0 &&
				lapack.MaxUpper(root.Fac) > thr*b.maxA {
				b.fellBack[k] = true
				t.Label += " [gepp-fallback]"
				b.geppFallback(k, r0, c0, w)
				return
			}
			sw := tslu.BuildSwaps(root.Idx, r0)
			b.swaps[k] = sw
			colView := b.a.View(0, c0, b.m, w)
			tslu.ApplyPivots(colView, sw, r0)
			kk := root.Fac.Rows
			colView.View(r0, 0, kk, w).CopyFrom(root.Fac)
			if kk < min(mr, w) {
				b.errs[k] = tslu.ErrSingular
				return
			}
			for i := 0; i < min(kk, w); i++ {
				if root.Fac.At(i, i) == 0 {
					b.errs[k] = tslu.ErrSingular
					return
				}
			}
		}
		fin.Out = func() []float64 { return b.a.Col(c0)[r0 : r0+min(mr, w)] }
	}
	b.g.Add(fin)
	b.dep(fin, rootRef.task)
	b.dep(fin, b.fronts[k].write(r0, b.m, fin)...)

	// --- Tasks L: remaining rows of the panel's L factor. ---
	lRows0 := r0 + w
	var lBlocks [][2]int
	if lRows0 < b.m {
		lBlocks = tslu.Partition(b.m-lRows0, opt.PanelThreads)
	}
	lTasks := make([]*sched.Task, len(lBlocks))
	for i, blk := range lBlocks {
		lo, hi := lRows0+blk[0], lRows0+blk[1]
		rows := hi - lo
		t := &sched.Task{
			Label:    fmt.Sprintf("L k=%d i=%d", k, i),
			Kind:     sched.KindL,
			Priority: priority(opt, b.nb, k, k, bonusL),
			Flops:    float64(rows) * float64(w) * float64(w),
			Class:    sched.ClassBLAS3,
		}
		if b.a != nil {
			t.Run = func() {
				ukk := b.a.View(r0, c0, w, w)
				lblk := b.a.View(lo, c0, rows, w)
				blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, ukk, lblk)
			}
			t.Out = func() []float64 { return b.a.Col(c0)[lo:hi] }
		}
		b.g.Add(t)
		b.dep(t, b.fronts[k].write(lo, hi, t)...)
		lTasks[i] = t
	}

	// --- Tasks U and S over the trailing block columns. ---
	for j0 := k + 1; j0 < b.nb; j0 += opt.ColsPerTask {
		j1 := min(b.nb, j0+opt.ColsPerTask)
		gc0, _ := b.colRange(j0)
		_, gc1 := b.colRange(j1 - 1)
		gw := gc1 - gc0

		u := &sched.Task{
			Label:    fmt.Sprintf("U k=%d j=%d", k, j0),
			Kind:     sched.KindU,
			Priority: priority(opt, b.nb, k, j0, bonusU),
			Flops:    float64(w) * float64(w) * float64(gw),
			Class:    sched.ClassBLAS3,
		}
		if b.a != nil {
			t := u
			t.Run = func() {
				colView := b.a.View(0, gc0, b.m, gw)
				tslu.ApplyPivots(colView, b.swaps[k], r0)
				lkk := b.a.View(r0, c0, w, w)
				ukj := b.a.View(r0, gc0, w, gw)
				blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, lkk, ukj)
			}
			t.Out = func() []float64 { return b.a.Col(gc0)[r0 : r0+w] }
		}
		b.g.Add(u)
		b.dep(u, fin)
		for j := j0; j < j1; j++ {
			b.dep(u, b.fronts[j].write(r0, b.m, u)...)
		}

		for i, blk := range lBlocks {
			lo, hi := lRows0+blk[0], lRows0+blk[1]
			rows := hi - lo
			s := &sched.Task{
				Label:    fmt.Sprintf("S k=%d i=%d j=%d", k, i, j0),
				Kind:     sched.KindS,
				Priority: priority(opt, b.nb, k, j0, bonusS),
				Flops:    2 * float64(rows) * float64(w) * float64(gw),
				Class:    sched.ClassBLAS3,
			}
			if b.a != nil {
				t := s
				t.Run = func() {
					lik := b.a.View(lo, c0, rows, w)
					ukj := b.a.View(r0, gc0, w, gw)
					aij := b.a.View(lo, gc0, rows, gw)
					blas.Gemm(blas.NoTrans, blas.NoTrans, -1, lik, ukj, 1, aij)
				}
				t.Out = func() []float64 { return b.a.Col(gc0)[lo:hi] }
			}
			b.g.Add(s)
			b.dep(s, u, lTasks[i])
			for j := j0; j < j1; j++ {
				b.dep(s, b.fronts[j].write(lo, hi, s)...)
			}
		}
	}

	// --- Task V: ABFT checksum verification of the finished block column.
	// By this point rows [0, r0) of the column hold final U entries (written
	// by earlier panels' U tasks and never touched again — later row swaps
	// anchor below them) and rows [r0, m) hold the panel's L\U, so the
	// column-sum identity over the original matrix is checkable. The V tasks
	// chain (each reads the L sums its predecessors accumulated) and gate
	// nothing but the next V, so verification rides the graph's slack.
	if b.verifyOn() {
		v := &sched.Task{
			Label:    fmt.Sprintf("V k=%d", k),
			Kind:     sched.KindP,
			Priority: priority(opt, b.nb, k, k, bonusV),
			Flops:    2 * float64(b.m) * float64(w),
			Class:    sched.ClassBLAS2,
			Rows:     b.m,
		}
		t := v
		t.Run = func() {
			// A rank-deficient panel leaves the column incomplete; flagging
			// it as corrupted would convert the permanent ErrSingular into a
			// retryable error, so the chain goes inert instead.
			if b.vpoison || b.errs[k] != nil {
				b.vpoison = true
				return
			}
			abft.AccumulateLSums(b.a, c0, c1, b.vsums)
			if bad := abft.VerifyLUColumns(b.a, c0, c1, b.vsums, b.wsums, b.vtol()); bad != -1 {
				if cb := b.opt.OnCorruption; cb != nil {
					cb(k)
				}
				panic(fmt.Errorf("%w: CALU column %d checksum mismatch (panel %d)", ErrCorrupted, bad, k))
			}
		}
		b.g.Add(v)
		b.dep(v, b.fronts[k].read(0, b.m)...)
		b.dep(v, b.vprev)
		b.vprev = v
	}
}

// candRows exposes a tournament candidate's row buffer for fault injection
// (sched.Task.Out); nil until the task has produced its candidate.
func candRows(cands []*tslu.Candidates, slot int) []float64 {
	if c := cands[slot]; c != nil {
		return c.Rows.Data
	}
	return nil
}

// geppFallback re-factors iteration k's panel with straight partial
// pivoting (the recursive GEPP kernel) after the growth guardrail tripped
// or verify mode caught a corrupted tournament, producing output in exactly
// the tournament finalize's shape: the GEPP interchanges become the
// iteration's swap list, applied to the full block column, and the factor's
// leading square block becomes the composite L\U — the downstream L/U/S
// tasks cannot tell which pivoting produced them. A rank-deficient panel is
// recorded in b.errs like the tournament path does. In verify mode the
// recomputed factor must itself reproduce the panel's pre-factoring column
// sums; a recomputation that disagrees again escalates to ErrCorrupted (the
// recovery ladder's next rung: full retry from the original matrix).
func (b *caluBuilder) geppFallback(k, r0, c0, w int) {
	mr := b.m - r0
	panel := scratch.Dense(mr, w)
	panel.CopyFrom(b.a.View(r0, c0, mr, w))
	var ws []float64
	if b.verifyOn() {
		ws = scratch.Get(w)
		defer scratch.Put(ws)
		abft.ColumnSums(panel, ws)
	}
	kk := min(mr, w)
	ipiv := make([]int, kk)
	err := lapack.RGETF2(panel, ipiv)
	if b.verifyOn() && err == nil && !abft.VerifyGEPPPanel(panel, ws, b.vtol()) {
		scratch.Release(panel)
		panic(fmt.Errorf("%w: CALU panel %d recomputation failed verification", ErrCorrupted, k))
	}
	sw := make([]int, kk)
	for j, p := range ipiv {
		sw[j] = r0 + p
	}
	b.swaps[k] = sw
	colView := b.a.View(0, c0, b.m, w)
	tslu.ApplyPivots(colView, sw, r0)
	colView.View(r0, 0, kk, w).CopyFrom(panel.View(0, 0, kk, w))
	scratch.Release(panel)
	if err != nil {
		b.errs[k] = tslu.ErrSingular
	}
}

// luFlops is the canonical GEPP flop count for an r x c block, r >= 0.
func luFlops(r, c int) float64 {
	fr, fc := float64(r), float64(c)
	return fr*fc*fc - fc*fc*fc/3
}

// ApplyPermInverse applies P^T (the inverse row permutation) to b,
// reversing ApplyPerm.
func (r *LUResult) ApplyPermInverse(b *matrix.Dense) {
	for k := len(r.Swaps) - 1; k >= 0; k-- {
		tslu.UndoPivots(b, r.Swaps[k], r.swapOrigin(k))
	}
}

// SolveTranspose solves A^T * x = rhs for square factored A, overwriting
// rhs with x: with P A = L U, A^T = U^T L^T P, so x = P^T (L^T)^-1 (U^T)^-1 rhs.
func (r *LUResult) SolveTranspose(rhs *matrix.Dense) {
	if r.A.Rows != r.A.Cols {
		panic(fmt.Errorf("%w: SolveTranspose needs square matrix, got %dx%d", ErrShape, r.A.Rows, r.A.Cols))
	}
	blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, r.A, rhs)
	blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, r.A, rhs)
	r.ApplyPermInverse(rhs)
}

// RCond estimates the reciprocal 1-norm condition number of the factored
// matrix given the 1-norm of the original (unfactored) matrix, via Hager's
// estimator on the implicit inverse. Returns 0 for a singular factor.
func (r *LUResult) RCond(anorm float64) float64 {
	n := r.A.Rows
	if n != r.A.Cols {
		panic(fmt.Errorf("%w: RCond needs square matrix", ErrShape))
	}
	for i := 0; i < n; i++ {
		if r.A.At(i, i) == 0 {
			return 0
		}
	}
	if anorm == 0 {
		return 0
	}
	buf := matrix.New(n, 1)
	invNorm := lapack.OneNormEst(n,
		func(x []float64) {
			copy(buf.Col(0), x)
			r.Solve(buf)
			copy(x, buf.Col(0))
		},
		func(x []float64) {
			copy(buf.Col(0), x)
			r.SolveTranspose(buf)
			copy(x, buf.Col(0))
		})
	if invNorm <= 0 {
		return 0
	}
	return 1 / (anorm * invNorm)
}

// SolveRefined solves A*x = rhs with iterative refinement: orig must be the
// original (unfactored) matrix. rhs is overwritten with the refined
// solution; the returned value is the final correction's max-norm, a cheap
// convergence indicator.
func (r *LUResult) SolveRefined(orig *matrix.Dense, rhs *matrix.Dense, iters int) float64 {
	if orig.Rows != r.A.Rows || orig.Cols != r.A.Cols {
		panic(fmt.Errorf("%w: SolveRefined original matrix has wrong shape", ErrShape))
	}
	b := rhs.Clone()
	r.Solve(rhs) // rhs now holds x0
	last := 0.0
	for it := 0; it < iters; it++ {
		// residual = b - A x
		resid := b.Clone()
		blas.Gemm(blas.NoTrans, blas.NoTrans, -1, orig, rhs, 1, resid)
		r.Solve(resid)
		for j := 0; j < rhs.Cols; j++ {
			x, d := rhs.Col(j), resid.Col(j)
			for i := range x {
				x[i] += d[i]
			}
		}
		last = resid.MaxAbs()
	}
	return last
}

// Inverse computes A^{-1} from the factorization by solving A X = I. For
// most uses prefer Solve: forming the inverse costs an extra n^3 flops and
// is less accurate.
func (r *LUResult) Inverse() *matrix.Dense {
	n := r.A.Rows
	if n != r.A.Cols {
		panic(fmt.Errorf("%w: Inverse needs square matrix", ErrShape))
	}
	inv := matrix.Identity(n)
	const nb = 32
	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		r.Solve(inv.View(0, j, n, jb))
	}
	return inv
}
