// Package factor is the public API of the communication-avoiding dense
// factorization library: multithreaded CALU (LU with tournament pivoting)
// and CAQR (QR over TSQR reduction trees) for multicore machines, after
// Donfack, Grigori and Gupta, "Adapting communication-avoiding LU and QR
// factorizations to multicore architectures" (IPDPS 2010).
//
// The one-shot entry points are LU and QR. Both factor a column-major
// Matrix in place on a private worker pool and return handles exposing
// solves, least squares, implicit-Q application and the raw factors:
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
// parallelism Tr, reduction tree shape and worker count, plus the
// pivot-growth guardrail, tracing and checksum verification. The zero
// Options value picks the paper's defaults (b = min(100, n), Tr = Workers
// = GOMAXPROCS, binary tree, look-ahead on).
//
// A long-lived service holds an Engine instead, built by
// NewEngineWithConfig: one persistent worker pool shared by every request
// until Close, plus admission control, retries, a stall watchdog, request
// coalescing and a result cache as its EngineConfig asks. An engine has
// two pairs of entry points. Engine.LUCtx/QRCtx factor a in place like
// LU/QR, bound to a context: cancelling it or letting its deadline expire
// returns an error wrapping the context's error, never a partial result,
// while concurrent requests are unaffected (doc/CANCELLATION.md).
// Engine.LUCachedCtx/QRCachedCtx go through the result cache: they never
// modify a and return a shared, read-only handle plus whether it was a
// hit (doc/SERVICE.md).
//
// Options say what to compute and EngineConfig says how the engine serves
// it; the two share only Workers, and an engine runs every request on its
// own pool whatever the request's Workers says.
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
	// Workers is the number of scheduler goroutines of LU and QR's private
	// pool; 0 means GOMAXPROCS. An Engine ignores it and uses its own pool.
	Workers int
	// StructuredTree switches CAQR's tree merges to the structured
	// triangle-on-triangle kernel (faster; same R up to rounding).
	StructuredTree bool
	// GrowthThreshold arms LU's pivot-growth guardrail: a panel whose
	// element growth max|U|/max|A| exceeds it is re-factored with straight
	// partial pivoting (GEPP) and recorded in FallbackPanels. 0 disables
	// the guardrail. QR ignores it.
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
		Lookahead:       true,
		StructuredTree:  o.StructuredTree,
		GrowthThreshold: o.GrowthThreshold,
		Trace:           o.Trace,
		Verify:          o.Verify,
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

// ErrCorrupted is returned by verified factorizations (Options.Verify) when
// an ABFT checksum mismatch survives local panel recovery. The input was
// silently corrupted mid-run — a transient fault, not a property of the
// matrix — so the error is retryable: a self-healing engine restores the
// input and refactors, and a serving front end maps it to 503 with
// Retry-After.
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

// operation describes LU or QR to the serving path the two share: R is the
// core result, P the prepared (built but unrun) request and F the public
// handle.
type operation[R any, P prepared[R], F any] struct {
	label   string // request_seconds op label
	key     byte   // cache-key operation byte
	run     func(context.Context, *Matrix, core.Options, *sched.Pool) (R, error)
	prepare func(*Matrix, core.Options) (P, error)
	// handle binds a finished result to the caller's matrix a.
	handle func(res R, a *Matrix, workers int) F
}

// prepared is core.PreparedLU or core.PreparedQR.
type prepared[R any] interface {
	Graph() *sched.Graph
	Finish(runErr error) (R, error)
}

var (
	luOp = &operation[*core.LUResult, *core.PreparedLU, *LUFactorization]{
		label: "lu", key: 'L', run: core.CALU, prepare: core.PrepareCALU,
		handle: func(res *core.LUResult, a *Matrix, workers int) *LUFactorization {
			res.A = a
			return &LUFactorization{res: res, workers: workers}
		},
	}
	qrOp = &operation[*core.QRResult, *core.PreparedQR, *QRFactorization]{
		label: "qr", key: 'Q', run: core.CAQR, prepare: core.PrepareCAQR,
		handle: func(res *core.QRResult, a *Matrix, workers int) *QRFactorization {
			res.A = a
			return &QRFactorization{res: res, workers: workers}
		},
	}
)

// factorOnce runs op on a private pool of opt.Workers goroutines.
func factorOnce[R any, P prepared[R], F any](op *operation[R, P, F], a *Matrix, opt Options) (F, error) {
	iopt := opt.internal()
	res, err := op.run(context.Background(), a, iopt, nil) // calint:ignore ctx-propagation -- documented ctx-free entry point
	if err != nil {
		var none F
		return none, err
	}
	return op.handle(res, a, iopt.Workers), nil
}

// LU computes the communication-avoiding LU factorization with tournament
// pivoting of a (m x n, m >= n), in place. The returned handle exposes
// solves and the permutation; a itself holds L and U.
func LU(a *Matrix, opt Options) (*LUFactorization, error) { return factorOnce(luOp, a, opt) }

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
func QR(a *Matrix, opt Options) (*QRFactorization, error) { return factorOnce(qrOp, a, opt) }

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
