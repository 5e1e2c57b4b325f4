package core

// Prepared factorization requests: the graph-construction half of
// CALU/CAQR split from execution, so a service front end can coalesce many
// small factorizations into one merged sched.Pool submission
// (sched.MergeGraphs) — aggregating small operations into fewer, larger
// ones, the communication-avoiding idea applied at the request level.
//
// The split is the single-request path itself: CALU and CAQR are Prepare,
// one pool submission, then Finish. Prepare does validation, the finite
// scan and graph construction; Finish does the post-execution bookkeeping
// (deferred pivot application, per-panel error reporting). A prepared
// request is single-use: its graph is consumed by the submission that runs
// it.

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tslu"
)

// PreparedLU is one validated CALU request whose task graph has been built
// but not yet executed. Run its Graph (typically merged with others into a
// single pool submission), then call Finish.
type PreparedLU struct {
	b   *caluBuilder
	res *LUResult
}

// PrepareCALU validates a and builds its CALU task graph without executing
// it. It requires m >= n: CALU routes wide matrices through a recursion
// whose sequential post-processing cannot ride a coalesced submission.
// Options.Trace and Options.WorkStealing do not shape the graph; whoever
// submits it picks the trace and policy.
func PrepareCALU(a *matrix.Dense, opt Options) (*PreparedLU, error) {
	maxA, wsums, err := checkInput(a, opt.Verify)
	if err != nil {
		return nil, err
	}
	if err := opt.normalize(a.Rows, a.Cols); err != nil {
		return nil, err
	}
	b := newCALUBuilder(a.Rows, a.Cols, &opt)
	b.a, b.maxA, b.wsums = a, maxA, wsums
	if opt.Verify {
		b.vsums = make([]float64, a.Cols)
		b.recomputed = make([]bool, b.nb)
	}
	b.build()
	return &PreparedLU{b: b, res: &LUResult{A: a}}, nil
}

// Graph returns the request's task graph. Merging it (sched.MergeGraphs)
// empties it in place; Finish does not depend on it afterwards.
func (p *PreparedLU) Graph() *sched.Graph { return p.b.g }

// Finish completes the request after its graph ran: runErr is the combined
// submission's error (nil on a clean run). On success it applies the
// deferred row interchanges to the L blocks left of each panel and reports
// the first singular panel; the result accompanying a non-nil error is
// partial and must not be used. Finish leaves the Graph/Events fields nil:
// CALU fills them in, while a batched request's merged submission owns the
// combined graph.
func (p *PreparedLU) Finish(runErr error) (*LUResult, error) {
	res := p.res
	res.Swaps = p.b.swaps
	for k, fb := range p.b.fellBack {
		if fb {
			res.FallbackPanels = append(res.FallbackPanels, k)
		}
	}
	for k, rc := range p.b.recomputed {
		if rc {
			res.RecomputedPanels = append(res.RecomputedPanels, k)
		}
	}
	if runErr != nil {
		return res, fmt.Errorf("core: CALU execution failed: %w", runErr)
	}
	// Deferred application of row interchanges to the L blocks left of each
	// panel (Algorithm 1 line 41).
	bs := p.b.opt.BlockSize
	for k := 1; k < len(p.b.swaps); k++ {
		left := p.b.a.View(0, 0, p.b.a.Rows, k*bs)
		tslu.ApplyPivots(left, p.b.swaps[k], k*bs)
	}
	for k, err := range p.b.errs {
		if err != nil {
			return res, fmt.Errorf("core: CALU panel %d: %w", k, err)
		}
	}
	return res, nil
}

// PreparedQR is one validated CAQR request whose task graph has been built
// but not yet executed, the QR analogue of PreparedLU.
type PreparedQR struct {
	b   *caqrBuilder
	res *QRResult
}

// PrepareCAQR validates a and builds its CAQR task graph without executing
// it, under the same m >= n restriction as PrepareCALU.
func PrepareCAQR(a *matrix.Dense, opt Options) (*PreparedQR, error) {
	maxA, wsums, err := checkInput(a, opt.Verify)
	if err != nil {
		return nil, err
	}
	if err := opt.normalize(a.Rows, a.Cols); err != nil {
		return nil, err
	}
	res := &QRResult{A: a}
	b := newCAQRBuilder(a.Rows, a.Cols, &opt)
	b.a, b.res, b.maxA, b.wsums = a, res, maxA, wsums
	if opt.Verify {
		b.u = onesVector(a.Rows)
	}
	b.build()
	return &PreparedQR{b: b, res: res}, nil
}

// Graph returns the request's task graph; see PreparedLU.Graph.
func (p *PreparedQR) Graph() *sched.Graph { return p.b.g }

// Finish completes the request after its graph ran; see PreparedLU.Finish.
func (p *PreparedQR) Finish(runErr error) (*QRResult, error) {
	if runErr != nil {
		return p.res, fmt.Errorf("core: CAQR execution failed: %w", runErr)
	}
	return p.res, nil
}
