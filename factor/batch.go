package factor

// Request coalescing: many small factorizations arriving within a short
// window are merged (sched.MergeGraphs) into ONE pool submission instead of
// one apiece — the paper's aggregation of small operations into fewer,
// larger ones, applied at the service level. A merged batch keeps the
// workers draining one combined ready set where per-request submissions
// would leave them idling between tiny graphs.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// batchItem is one prepared factorization riding a coalesced submission:
// g is its task graph (consumed by the merge), finish runs the request's
// post-execution bookkeeping with the combined submission's error. done is
// closed once finish has run and err is set.
type batchItem struct {
	g      *sched.Graph
	finish func(runErr error) error
	done   chan struct{}
	err    error
}

// batcher accumulates eligible requests for up to window (or maxReq
// requests, whichever comes first) and flushes them as one merged pool
// submission.
type batcher struct {
	e      *Engine
	window time.Duration
	maxReq int

	mu      sync.Mutex
	pending []*batchItem
	timer   *time.Timer
	closed  bool

	// flushes is the engine's registered batch-flush counter
	// (newEngineMetrics).
	flushes *obs.Counter
}

func newBatcher(e *Engine, window time.Duration, maxReq int) *batcher {
	return &batcher{e: e, window: window, maxReq: maxReq, flushes: e.met.batchFlushes}
}

// do enqueues the graph g and waits for its batch to run, returning the
// request's own finish error. Abandoning on ctx cancellation does not
// cancel the merged submission — batch-mates still complete; a wedged
// submission is the watchdog's and CloseWithTimeout's job.
func (b *batcher) do(ctx context.Context, g *sched.Graph, finish func(error) error) error {
	it := &batchItem{g: g, finish: finish, done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrEngineClosed
	}
	b.pending = append(b.pending, it)
	if len(b.pending) >= b.maxReq {
		items := b.takeLocked()
		b.mu.Unlock()
		go b.flush(items)
	} else {
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.window, b.timedFlush)
		}
		b.mu.Unlock()
	}
	select {
	case <-it.done:
		return it.err
	case <-ctx.Done():
		return fmt.Errorf("%w waiting for batch: %w", ErrCancelled, ctx.Err())
	}
}

// takeLocked detaches the pending window; callers hold b.mu.
func (b *batcher) takeLocked() []*batchItem {
	items := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return items
}

// timedFlush fires when a window expires with fewer than maxReq requests.
func (b *batcher) timedFlush() {
	b.mu.Lock()
	items := b.takeLocked()
	b.mu.Unlock()
	go b.flush(items)
}

// flush merges the items' graphs into one submission, runs it, and
// completes every item with its own finish error. It must never leak a
// blocked waiter: any panic (merge, submit, a finish implementation) is
// converted into an error on every item still open.
func (b *batcher) flush(items []*batchItem) {
	if len(items) == 0 {
		return
	}
	finished := 0
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("factor: batch flush panicked: %v", r)
			for _, it := range items[finished:] {
				it.err = err
				close(it.done)
			}
		}
	}()
	graphs := make([]*sched.Graph, len(items))
	for i, it := range items {
		graphs[i] = it.g
	}
	merged := sched.MergeGraphs(graphs...)
	var runErr error
	// calint:ignore ctx-propagation -- the merged submission deliberately outlives any single request's ctx (batch-mates share it; see do's doc comment)
	sub, err := b.e.pool.Submit(merged, sched.SubmitOptions{})
	if err != nil {
		runErr = err
	} else {
		_, runErr = sub.Wait()
	}
	b.flushes.Inc()
	for _, it := range items {
		it.err = it.finish(runErr)
		close(it.done)
		finished++
	}
}

// close flushes the pending window synchronously and rejects future
// enqueues. It runs before the pool shuts down, so already-accepted batched
// requests still complete.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	items := b.takeLocked()
	b.mu.Unlock()
	b.flush(items)
}

// batchedAttempt is one coalesced attempt at op: it prepares a fresh clone
// of a (a merged graph is consumed by its run, so a retry can never reuse
// it), rides a shared submission, and copies the factors back into a only
// on success. A QR result's Panels keep viewing the clone, which holds the
// same values as a after the copy.
func batchedAttempt[R any, P prepared[R], F any](ctx context.Context, e *Engine, op *operation[R, P, F], a *Matrix, opt Options) (R, error) {
	var none, res R
	clone := a.Clone()
	p, err := op.prepare(clone, e.engineOptions(opt))
	if err != nil {
		return none, err
	}
	e.met.batched.Inc()
	// A wait abandoned on ctx returns before the flush calls finish, so the
	// error return must not read res.
	if err := e.batch.do(ctx, p.Graph(), func(runErr error) (err error) {
		res, err = p.Finish(runErr)
		return err
	}); err != nil {
		return none, err
	}
	a.CopyFrom(clone)
	return res, nil
}
