// Package factor is the public API of the communication-avoiding dense
// factorization library: multithreaded CALU (LU with tournament pivoting)
// and CAQR (QR over TSQR reduction trees) for multicore machines, after
// Donfack, Grigori and Gupta, "Adapting communication-avoiding LU and QR
// factorizations to multicore architectures" (IPDPS 2010).
//
// The entry points are LU and QR. Both factor a column-major Matrix in
// place and return handles exposing solves, least squares, implicit-Q
// application and the raw factors:
//
//	a := factor.NewMatrix(m, n)
//	// ... fill a ...
//	lu, err := factor.LU(a, factor.Options{})        // CALU, defaults
//	lu.Solve(b)                                       // b := A^-1 b
//
//	qr, err := factor.QR(a2, factor.Options{Workers: 8}) // CAQR
//	x := qr.LeastSquares(rhs)                            // min ||A x - rhs||
//
// Options control the paper's tuning knobs: panel block size b, panel
// parallelism Tr, reduction tree shape, worker count and look-ahead. The
// zero Options value picks the paper's defaults (b = min(100, n), Tr =
// Workers = GOMAXPROCS, binary tree, look-ahead on).
//
// A long-lived service should hold an Engine instead of calling LU/QR
// directly: NewEngine starts one persistent worker pool, every
// Engine.LU/Engine.QR call submits its task graph to that shared pool
// (concurrent submissions interleave on the same workers), and Close tears
// it down. The one-shot LU/QR helpers spin up and tear down a private pool
// per call.
//
// Every entry point has a context-bound variant (LUCtx/QRCtx,
// Engine.LUCtx/Engine.QRCtx) for callers that need to cancel a running
// factorization, bound it with a deadline, or shed load: the call returns
// an error wrapping the context's error and never a partial result, while
// concurrent requests on the same engine are unaffected. CloseWithTimeout
// bounds engine shutdown the same way. See doc/CANCELLATION.md for the
// full semantics.
package factor

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/mixed"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/tslu"
)

// Matrix is a dense column-major matrix of float64, with element (i, j)
// stored at Data[j*Stride+i]. It aliases the internal matrix type, so all
// of its methods (At, Set, View, Clone, norms, ...) are available.
type Matrix = matrix.Dense

// NewMatrix allocates a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// FromColMajor wraps an existing column-major slice without copying.
func FromColMajor(r, c, stride int, data []float64) *Matrix {
	return matrix.FromColMajor(r, c, stride, data)
}

// FromRows builds a matrix from row slices.
func FromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// Random returns an r x c matrix with deterministic pseudo-random entries
// in [-1, 1), seeded by seed.
func Random(r, c int, seed int64) *Matrix { return matrix.Random(r, c, seed) }

// Tree selects the shape of the panel reduction tree.
type Tree int

// Tree shapes: Binary is communication-optimal in parallel; Flat (height
// one) trades a larger final reduction for fewer synchronization rounds;
// Hybrid (flat groups then binary, after Hadri et al.) sits between.
const (
	Binary Tree = Tree(tslu.Binary)
	Flat   Tree = Tree(tslu.Flat)
	Hybrid Tree = Tree(tslu.Hybrid)
)

// Options are the algorithm's tuning knobs. The zero value selects the
// paper's defaults.
type Options struct {
	// BlockSize is the panel width b; 0 means min(100, n).
	BlockSize int
	// PanelThreads is Tr, the number of block rows in the panel reduction;
	// 0 means Workers.
	PanelThreads int
	// Tree is the reduction tree shape (Binary default).
	Tree Tree
	// Workers is the number of scheduler goroutines; 0 means GOMAXPROCS.
	Workers int
	// NoLookahead disables the look-ahead priority scheme (for study; the
	// paper's configuration keeps it on).
	NoLookahead bool
	// WorkStealing swaps the centralized priority scheduler for a
	// Cilk-style work-stealing one; numerical results are identical.
	WorkStealing bool
	// StructuredTree switches CAQR's tree merges to the structured
	// triangle-on-triangle kernel (faster; same R up to rounding).
	StructuredTree bool
	// GrowthThreshold arms LU's pivot-growth guardrail: a panel whose
	// element growth max|U|/max|A| exceeds it is re-factored with straight
	// partial pivoting (GEPP) and recorded in FallbackPanels. 0 disables
	// the guardrail (or defers to EngineConfig.GrowthThreshold on an
	// engine). QR ignores it.
	GrowthThreshold float64
	// Trace records per-task execution events, retrievable via the result
	// handles' Events fields.
	Trace bool
	// Verify arms algorithm-based fault tolerance: column checksums of the
	// input are carried through the factorization and checked at every panel
	// boundary, so silent data corruption (a flipped bit in a task's output)
	// is detected instead of shipped. A corrupted CALU panel is recomputed
	// once from its pristine source; anything unrecoverable fails with
	// ErrCorrupted, which a retrying engine treats as transient. Overhead is
	// O(mn) checksum work against the O(mn^2) factorization. See
	// doc/ROBUSTNESS.md.
	Verify bool
	// VerifyTolerance scales the checksum comparison: predicted and actual
	// column sums must agree within VerifyTolerance * m * max|A|. 0 means
	// 1e-8 — orders of magnitude above roundoff, orders below any injected
	// fault.
	VerifyTolerance float64
}

func (o Options) internal() core.Options {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr := o.PanelThreads
	if tr <= 0 {
		tr = workers
	}
	return core.Options{
		BlockSize:       o.BlockSize,
		PanelThreads:    tr,
		Tree:            tslu.Tree(o.Tree),
		Workers:         workers,
		Lookahead:       !o.NoLookahead,
		WorkStealing:    o.WorkStealing,
		StructuredTree:  o.StructuredTree,
		GrowthThreshold: o.GrowthThreshold,
		Trace:           o.Trace,
		Verify:          o.Verify,
		VerifyTolerance: o.VerifyTolerance,
	}
}

// LUFactorization is the result of LU: P*A = L*U with L unit lower
// triangular and U upper triangular, both stored in place in the input
// matrix; the permutation is available through Permute.
type LUFactorization struct {
	res     *core.LUResult
	workers int
}

// ErrSingular is returned by LU when a panel is rank deficient.
var ErrSingular = tslu.ErrSingular

// ErrShape is returned by LU and QR for malformed inputs: a nil or empty
// matrix. Both report it as a wrapped error (test with errors.Is) instead
// of panicking, so a long-lived service can reject bad requests cheaply.
var ErrShape = core.ErrShape

// ErrCorrupted is returned by verified factorizations (Options.Verify or
// EngineConfig.VerifyChecksums) when an ABFT checksum mismatch survives
// local panel recovery. The input was silently corrupted mid-run — a
// transient fault, not a property of the matrix — so the error is
// retryable: a self-healing engine restores the input and refactors, and a
// serving front end maps it to 503 with Retry-After.
var ErrCorrupted = core.ErrCorrupted

// TaskEvent is one traced task execution: which kind of task (P, L, U or S
// in the paper's nomenclature), on which worker, over which wall-clock
// interval (seconds since the factorization started). Recorded only when
// Options.Trace is set.
type TaskEvent struct {
	// Kind is the task class: "P" (panel reduction node), "L" (panel L
	// block), "U" (pivoting + U row) or "S" (trailing update).
	Kind string
	// Label identifies the task within the graph (e.g. "S[2,5]").
	Label string
	// Worker is the index of the pool goroutine that ran the task.
	Worker int
	// Start and End delimit the execution in seconds from the run start.
	Start, End float64
}

// taskEvents converts a scheduler trace into the public TaskEvent form,
// sorted by worker then start time.
func taskEvents(events []sched.Event, g *sched.Graph, workers int) []TaskEvent {
	if len(events) == 0 {
		return nil
	}
	tr := trace.FromSched(events, g, workers)
	out := make([]TaskEvent, len(tr.Spans))
	for i, s := range tr.Spans {
		out[i] = TaskEvent{Kind: s.Kind.String(), Label: s.Label, Worker: s.Worker, Start: s.Start, End: s.End}
	}
	return out
}

// LU computes the communication-avoiding LU factorization with tournament
// pivoting of a (m x n, m >= n), in place. The returned handle exposes
// solves and the permutation; a itself holds L and U.
func LU(a *Matrix, opt Options) (*LUFactorization, error) {
	return LUCtx(context.Background(), a, opt) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// LUCtx is LU bound to a context: if ctx is cancelled or its deadline
// expires the factorization stops dispatching tasks, drains, and returns an
// error wrapping context.Canceled or context.DeadlineExceeded — never a
// partial result. a is factored in place, so its contents are unspecified
// after a cancelled call.
func LUCtx(ctx context.Context, a *Matrix, opt Options) (*LUFactorization, error) {
	iopt := opt.internal()
	res, err := core.CALU(ctx, a, iopt, nil)
	if err != nil {
		return nil, err
	}
	return &LUFactorization{res: res, workers: iopt.Workers}, nil
}

// Factors returns the in-place factor matrix (L below the unit diagonal,
// U on and above).
func (f *LUFactorization) Factors() *Matrix { return f.res.A }

// Permute applies the factorization's row permutation P to b in place.
func (f *LUFactorization) Permute(b *Matrix) { f.res.ApplyPerm(b) }

// Solve solves A*x = rhs for square A, overwriting rhs with x.
func (f *LUFactorization) Solve(rhs *Matrix) { f.res.Solve(rhs) }

// Events returns the per-task execution trace — kind, worker and timing of
// every task — when Options.Trace was set, and nil otherwise.
func (f *LUFactorization) Events() []TaskEvent {
	return taskEvents(f.res.Events, f.res.Graph, f.workers)
}

// FallbackPanels lists the panel iterations the pivot-growth guardrail
// re-factored with GEPP (see Options.GrowthThreshold), in ascending order.
// Empty when the guardrail is off or never tripped.
func (f *LUFactorization) FallbackPanels() []int { return f.res.FallbackPanels }

// RecomputedPanels lists the panel iterations the ABFT gate recomputed from
// pristine source after detecting corruption (see Options.Verify), in
// ascending order. Empty when verification is off or nothing was detected.
func (f *LUFactorization) RecomputedPanels() []int { return f.res.RecomputedPanels }

// QRFactorization is the result of QR: A = Q*R with R upper triangular in
// the input matrix and Q held implicitly (leaf reflectors in the matrix,
// tree reflectors in the handle).
type QRFactorization struct {
	res     *core.QRResult
	workers int
}

// QR computes the communication-avoiding QR factorization of a (m x n,
// m >= n), in place. Malformed inputs are reported as an ErrShape-wrapped
// error.
func QR(a *Matrix, opt Options) (*QRFactorization, error) {
	return QRCtx(context.Background(), a, opt) // calint:ignore ctx-propagation -- documented ctx-free entry point
}

// QRCtx is QR bound to a context, with the same cancellation semantics as
// LUCtx: an error wrapping the context's error, never a partial result.
func QRCtx(ctx context.Context, a *Matrix, opt Options) (*QRFactorization, error) {
	iopt := opt.internal()
	res, err := core.CAQR(ctx, a, iopt, nil)
	if err != nil {
		return nil, err
	}
	return &QRFactorization{res: res, workers: iopt.Workers}, nil
}

// R returns a copy of the n x n upper-triangular factor.
func (f *QRFactorization) R() *Matrix { return f.res.R() }

// Q returns the explicit thin m x n orthogonal factor. Prefer ApplyQ /
// ApplyQT, which avoid materializing Q.
func (f *QRFactorization) Q() *Matrix { return f.res.ExplicitQ() }

// ApplyQT overwrites c with Q^T * c.
func (f *QRFactorization) ApplyQT(c *Matrix) { f.res.ApplyQT(c) }

// ApplyQ overwrites c with Q * c.
func (f *QRFactorization) ApplyQ(c *Matrix) { f.res.ApplyQ(c) }

// LeastSquares solves min ||A*x - rhs||_2, returning x (n x p). rhs is
// overwritten with Q^T rhs.
func (f *QRFactorization) LeastSquares(rhs *Matrix) *Matrix {
	return f.res.LeastSquares(rhs)
}

// Events returns the per-task execution trace — kind, worker and timing of
// every task — when Options.Trace was set, and nil otherwise.
func (f *QRFactorization) Events() []TaskEvent {
	return taskEvents(f.res.Events, f.res.Graph, f.workers)
}

// SolveTranspose solves A^T * x = rhs for square A, overwriting rhs.
func (f *LUFactorization) SolveTranspose(rhs *Matrix) { f.res.SolveTranspose(rhs) }

// Condition estimates the reciprocal 1-norm condition number given the
// 1-norm of the original matrix (capture it with NormOne before factoring).
// Returns 0 for a singular factor.
func (f *LUFactorization) Condition(anorm float64) float64 { return f.res.RCond(anorm) }

// SolveRefined solves A*x = rhs with the given number of iterative
// refinement steps; orig must be the original (unfactored) matrix. It
// returns the final correction's max-norm.
func (f *LUFactorization) SolveRefined(orig, rhs *Matrix, iters int) float64 {
	return f.res.SolveRefined(orig, rhs, iters)
}

// Inverse forms A^{-1} from the factorization. Prefer Solve where possible:
// the explicit inverse costs an extra n^3 flops and is less accurate.
func (f *LUFactorization) Inverse() *Matrix { return f.res.Inverse() }

// SolveMixed solves A*x = rhs (single right-hand side) using a float32
// factorization refined to float64 accuracy — roughly twice the kernel
// throughput when it converges (condition number below ~10^7). rhs is
// overwritten with x; the returned count is the number of refinement
// iterations. Fails with an error for ill-conditioned systems, in which
// case use LU + Solve.
func SolveMixed(a, rhs *Matrix, maxIter int) (int, error) {
	res, err := mixed.Solve(a, rhs, maxIter)
	return res.Iterations, err
}

// PermutationVector returns the factorization's row permutation as an
// explicit vector p, where row i of the factored matrix corresponds to row
// p[i] of the original.
func (f *LUFactorization) PermutationVector() []int {
	n := f.res.A.Rows
	lab := matrix.New(n, 1)
	for i := 0; i < n; i++ {
		lab.Set(i, 0, float64(i))
	}
	f.res.ApplyPerm(lab)
	p := make([]int, n)
	for i := 0; i < n; i++ {
		p[i] = int(lab.At(i, 0))
	}
	return p
}
