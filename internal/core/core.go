// Package core implements the paper's contribution: multithreaded
// communication-avoiding LU (CALU, Algorithm 1) and QR (CAQR, Algorithm 2)
// factorizations for multicore architectures.
//
// Both algorithms traverse the matrix by block columns of width b. The
// panel factorization is a TSLU/TSQR reduction over Tr block rows, and all
// work — tournament/tree nodes (task P), panel L blocks (task L), pivoting
// plus U rows (task U) and trailing-matrix updates (task S) — is expressed
// as a task dependency graph executed by the dynamic priority scheduler in
// package sched. Priorities realize the paper's look-ahead-of-1: tasks are
// ordered by the block column they touch, so the moment column K+1 is up to
// date the next panel factorization starts, hiding panel latency behind
// trailing updates.
//
// The task graphs can also be built without binding numeric closures
// (BuildCALUGraph / BuildCAQRGraph), annotated with canonical flop counts
// and kernel classes; package simsched executes such graphs in virtual time
// on a modeled machine, which is how the paper-scale experiments are
// reproduced on hosts with fewer cores.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tslu"
)

// ErrShape reports a malformed input matrix: nil, empty, or otherwise
// unusable for the requested factorization. It is returned (wrapped with
// the offending dimensions) rather than panicking, so service callers can
// reject bad requests without tearing down the process.
var ErrShape = errors.New("core: invalid matrix shape")

// ErrSingular is re-exported from tslu: a panel was rank deficient.
// Errors returned by CALU wrap it, so errors.Is(err, ErrSingular) works.
var ErrSingular = tslu.ErrSingular

// ErrNonFinite reports a NaN or Inf entry in the input matrix. CALU and
// CAQR reject such inputs before building the task graph: a single
// non-finite entry silently poisons the whole factorization (pivot
// comparisons with NaN are false, so even the pivoting goes wrong), and no
// amount of retrying helps — it is a permanent input error, not a
// transient one.
var ErrNonFinite = errors.New("core: matrix contains a non-finite value")

// ErrCorrupted reports that verify mode (Options.Verify) detected silent
// data corruption — a checksum invariant failed at a panel boundary — and
// in-place recovery (recomputing the offending panel from its still-pristine
// source) either was not possible or disagreed again. Unlike ErrSingular or
// ErrNonFinite this is a transient fault, not a property of the input:
// retrying the whole factorization from the original matrix is the correct
// response, and factor.Engine's retry policy treats it that way.
var ErrCorrupted = errors.New("core: checksum mismatch, factorization corrupted")

// Options configures CALU and CAQR.
type Options struct {
	// BlockSize is the panel width b. The paper uses b = min(100, n).
	BlockSize int
	// PanelThreads is Tr, the number of block rows in the panel reduction.
	// Tr = 1 degenerates to a sequential panel (GEPP / recursive QR).
	PanelThreads int
	// Tree is the reduction tree shape (binary or flat height-1).
	Tree tslu.Tree
	// Workers is the number of scheduler goroutines (cores) of the private
	// pool CALU/CAQR create when given a nil pool. Defaults to 1.
	Workers int
	// Lookahead enables the paper's look-ahead-of-1 priority scheme
	// (column-ordered priorities). Disabled, tasks run iteration by
	// iteration, which reintroduces the panel idle bubbles of Fig. 3.
	Lookahead bool
	// ColsPerTask groups this many b-wide block columns into each U/S
	// task (the paper's future-work two-level blocking B = ColsPerTask*b).
	// Zero or one keeps the paper's one-column-per-task decomposition.
	ColsPerTask int
	// WorkStealing runs the graph under the pool's Cilk-style
	// work-stealing policy instead of the paper's centralized priority
	// scheduler. Results are bit-identical (tasks write disjoint regions);
	// only the schedule changes. For the scheduling ablation.
	WorkStealing bool
	// GrowthThreshold arms CALU's pivot-growth guardrail: after each
	// panel's tournament, if the composite factor's max|U| exceeds
	// GrowthThreshold * max|A| the panel is re-factored in place with
	// straight partial pivoting (GEPP), whose growth bound 2^k is far
	// stronger than tournament pivoting's 2^(b*H), and the panel index is
	// recorded in LUResult.FallbackPanels. Zero or negative disables the
	// monitor. CAQR ignores it (Householder QR is unconditionally stable).
	GrowthThreshold float64
	// StructuredTree uses the triangle-on-triangle TTQRT kernel for
	// eligible CAQR tree merges instead of the paper's dense stacked QR —
	// the optimization the paper's conclusion anticipates ("we are still
	// working on improving the performance of CAQR"). LU is unaffected.
	StructuredTree bool
	// Trace records per-task execution events (Figs. 3-4).
	Trace bool
	// Verify arms algorithm-based fault tolerance: column checksums of the
	// input are captured up front and the factorization's checksum
	// invariants are re-checked at every panel boundary (see internal/abft).
	// A mismatch in a CALU panel's own factors triggers an in-place
	// recomputation of that panel from its still-pristine source (bounded
	// by MaxPanelRecomputes); a mismatch that recomputation cannot clear —
	// or any mismatch in CAQR, whose panels are factored in place — fails
	// the run with an error wrapping ErrCorrupted, which is retryable.
	Verify bool
	// VerifyTolerance scales the checksum comparison tolerance: a column's
	// predicted and actual checksums may differ by up to
	// VerifyTolerance * m * max|A|. Zero defaults to 1e-8 — roughly six
	// orders of magnitude above the identity's roundoff noise for the sizes
	// this library targets, and twelve below a flipped exponent bit.
	VerifyTolerance float64
	// MaxPanelRecomputes caps how many panels one CALU run may recompute
	// before escalating to ErrCorrupted. Zero defaults to 2; negative
	// disables local recovery (every detection escalates).
	MaxPanelRecomputes int
	// OnCorruption, when set, is called with the panel index every time a
	// checksum mismatch is detected. Called from scheduler workers —
	// implementations must be safe for concurrent use.
	OnCorruption func(panel int)
	// OnPanelRecompute, when set, is called with the panel index after a
	// detected corruption was repaired by recomputing the panel in place.
	// Same concurrency contract as OnCorruption.
	OnPanelRecompute func(panel int)
}

// DefaultOptions returns the paper's defaults for an n-column matrix on
// `workers` cores: b = min(100, n), Tr = workers, binary tree, look-ahead on.
func DefaultOptions(n, workers int) Options {
	b := 100
	if n < b {
		b = n
	}
	if workers < 1 {
		workers = 1
	}
	return Options{
		BlockSize:    b,
		PanelThreads: workers,
		Tree:         tslu.Binary,
		Workers:      workers,
		Lookahead:    true,
	}
}

func (o *Options) normalize(m, n int) error {
	if m < 1 || n < 1 {
		return fmt.Errorf("%w: %dx%d matrix", ErrShape, m, n)
	}
	if m < n {
		return fmt.Errorf("%w: m >= n required, got %dx%d", ErrShape, m, n)
	}
	if o.BlockSize <= 0 {
		o.BlockSize = min(100, n)
	}
	if o.BlockSize > n {
		o.BlockSize = n
	}
	if o.PanelThreads < 1 {
		o.PanelThreads = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.ColsPerTask < 1 {
		o.ColsPerTask = 1
	}
	if o.VerifyTolerance <= 0 {
		o.VerifyTolerance = 1e-8
	}
	if o.MaxPanelRecomputes == 0 {
		o.MaxPanelRecomputes = 2
	}
	return nil
}

// checkInput is the input prologue shared by every CALU/CAQR entry point:
// shape checks (the wide m < n case is legal there and handled by
// recursion, so it is not rejected here), then one finite scan returning
// max|A| and, when verify is set, the pristine column sums.
func checkInput(a *matrix.Dense, verify bool) (maxA float64, wsums []float64, err error) {
	if a == nil {
		return 0, nil, fmt.Errorf("%w: nil matrix", ErrShape)
	}
	if a.Rows < 1 || a.Cols < 1 {
		return 0, nil, fmt.Errorf("%w: %dx%d matrix", ErrShape, a.Rows, a.Cols)
	}
	if verify {
		wsums = make([]float64, a.Cols)
	}
	maxA, err = scanFinite(a, wsums)
	return maxA, wsums, err
}

// scanFinite walks the matrix once, returning an error wrapping
// ErrNonFinite (with the first offending coordinate) if any entry is NaN
// or Inf, and max|A| otherwise. The max feeds the pivot-growth guardrail's
// denominator, so the pre-factorization scan does double duty in one pass.
// A non-nil colsums (length >= a.Cols) additionally receives the column
// sums of the pristine input — the ABFT checksum vector verify mode checks
// the finished factors against.
func scanFinite(a *matrix.Dense, colsums []float64) (float64, error) {
	maxA := 0.0
	for j := 0; j < a.Cols; j++ {
		sum := 0.0
		for i, v := range a.Col(j) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("%w: A(%d,%d) = %v", ErrNonFinite, i, j, v)
			}
			sum += v
			if v = math.Abs(v); v > maxA {
				maxA = v
			}
		}
		if colsums != nil {
			colsums[j] = sum
		}
	}
	return maxA, nil
}

// priority computes the scheduling priority of a task touching block column
// col (0-based) with the given within-column bonus. With look-ahead,
// priorities are column-ordered: everything touching an earlier column
// outranks everything touching a later one, which makes the critical path
// (panel of column K+1 right after its update) run first. Without
// look-ahead, priorities are iteration-ordered, serializing iterations.
func priority(opt *Options, nBlocks, iter, col, bonus int) int {
	if opt.Lookahead {
		return (nBlocks-col)*1000 + bonus
	}
	return (nBlocks-iter)*1000 + bonus
}

// runGraph executes a built graph on the given pool, or — when pool is nil
// — on a private pool sized by opt.Workers, closed before it returns. Task
// panics are captured per submission and come back as the error; with a
// shared pool a failed submission leaves the pool usable. Cancellation of ctx is observed
// between tasks: the submission drains without running its remaining tasks
// and the returned error wraps ctx's error.
func runGraph(ctx context.Context, g *sched.Graph, opt *Options, pool *sched.Pool) ([]sched.Event, error) {
	so := sched.SubmitOptions{Trace: opt.Trace}
	if opt.WorkStealing {
		so.Policy = sched.Stealing
	}
	if pool == nil {
		return sched.Run(ctx, g, opt.Workers, so)
	}
	sub, err := pool.SubmitCtx(ctx, g, so)
	if err != nil {
		return nil, err
	}
	return sub.Wait()
}

// Within-column task bonuses: the panel chain (P then L) outranks U, which
// outranks S, mirroring the paper's "highest priority to tasks on the
// critical path".
const (
	bonusFinalize = 95
	bonusP        = 90
	bonusL        = 85
	bonusU        = 80
	bonusS        = 70
	bonusV        = 60 // checksum verification rides the schedule's slack
)

// builder is the graph-construction scaffolding CALU and CAQR share: the
// graph, the normalized options, the block-column geometry and the
// per-column write frontiers, plus the binding state of a numeric build.
type builder struct {
	g      *sched.Graph
	opt    *Options
	m, n   int
	nb     int // number of block columns
	fronts []frontier

	// Binding state; a is nil for graph-only builds.
	a     *matrix.Dense
	maxA  float64   // max|A| of the input
	wsums []float64 // pristine column sums; verify mode only
}

func newBuilder(m, n int, opt *Options) builder {
	nb := (n + opt.BlockSize - 1) / opt.BlockSize
	return builder{g: sched.NewGraph(), opt: opt, m: m, n: n, nb: nb, fronts: make([]frontier, nb)}
}

// verifyOn reports whether this builder checks ABFT invariants: bound, with
// Options.Verify set.
func (b *builder) verifyOn() bool { return b.a != nil && b.opt.Verify }

// dep adds deduplicated dependencies from each task in pres to t.
func (b *builder) dep(t *sched.Task, pres ...*sched.Task) {
	seen := make(map[int]bool, len(pres))
	for _, p := range pres {
		if p == nil || seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		b.g.AddDep(p, t)
	}
}

// colRange returns the column range [c0, c1) of block column j.
func (b *builder) colRange(j int) (int, int) {
	c0 := j * b.opt.BlockSize
	return c0, min(b.n, c0+b.opt.BlockSize)
}

// span is a half-open row interval [lo, hi) with the task that last wrote it.
type span struct {
	lo, hi int
	task   *sched.Task
}

// frontier tracks, for one block column, which task last wrote each row
// range. It is how cross-iteration dependencies (an S update of column J at
// iteration K feeding the panel or update of column J at iteration K+1) are
// discovered while building the graph on the fly.
type frontier struct {
	spans []span
}

// overlapping returns the tasks whose spans overlap [lo, hi).
func (f *frontier) overlapping(lo, hi int) []*sched.Task {
	var deps []*sched.Task
	for _, s := range f.spans {
		if s.lo < hi && lo < s.hi {
			deps = append(deps, s.task)
		}
	}
	return deps
}

// write records t as the last writer of [lo, hi), trimming or splitting any
// previous spans it overlaps, and returns the tasks t must depend on.
func (f *frontier) write(lo, hi int, t *sched.Task) []*sched.Task {
	deps := f.overlapping(lo, hi)
	out := f.spans[:0]
	var extra []span
	for _, s := range f.spans {
		switch {
		case s.hi <= lo || hi <= s.lo: // disjoint
			out = append(out, s)
		case s.lo < lo && s.hi > hi: // t's range splits s
			out = append(out, span{s.lo, lo, s.task})
			extra = append(extra, span{hi, s.hi, s.task})
		case s.lo < lo: // s's tail overwritten
			out = append(out, span{s.lo, lo, s.task})
		case s.hi > hi: // s's head overwritten
			out = append(out, span{hi, s.hi, s.task})
		default: // fully covered
		}
	}
	f.spans = append(append(out, extra...), span{lo, hi, t})
	return deps
}

// read returns the tasks a reader of [lo, hi) must depend on, without
// changing the frontier. Anti-dependencies (a later writer must wait for
// this reader) are handled structurally by the algorithms: the only readers
// of a region that is later rewritten are tasks the rewriter already
// depends on transitively.
func (f *frontier) read(lo, hi int) []*sched.Task {
	return f.overlapping(lo, hi)
}
