package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/tslu"
	"repro/internal/tsqr"
)

// The traced run's in-process legs time the benchmark's own calls into
// each layer's exported functions at the workload's shape:
//
//   - the engine leg interleaves, per input, an untraced and a traced
//     factor.Engine call (trace overhead, engine time, allocations), the
//     same factorization split into core.Prepare*, sched.Pool.SubmitCtx/
//     Wait with per-task trace events, and Finish (build, execution,
//     finish, task time by kind), and the blocked LAPACK routine on the
//     same input (same-run reference);
//   - the kernel leg round-robins the panel and kernel routines the
//     factorization issues, at the shapes it issues them.

// unattributedTol is the share of the untraced engine calls' wall time
// that the traced core path's phases may leave unexplained, summed over a
// run's operations, before the run is invalid. Each operation's two
// measurements are taken apart, so on a shared host they differ by a few
// tenths on single operations and by several hundredths over a run.
const unattributedTol = 0.15

// opLedger is one operation's time account: the phases of the traced core
// path and the wall time of the untraced factor.Engine call on the same
// input, measured apart from them, that the phases must account for.
type opLedger struct {
	wall                float64 // untraced engine call, seconds
	build, exec, finish float64 // core.Prepare*, SubmitCtx to Wait, Finish
	tasks, capacity     float64 // sum of task time; workers x exec
}

// unattributed is the share of the engine call's wall time that build +
// exec + finish do not account for, either way, plus the task time beyond
// what the workers could run during exec.
func (o opLedger) unattributed() float64 {
	return math.Abs(o.wall-o.build-o.exec-o.finish)/o.wall + max(0, o.tasks-o.capacity)/o.capacity
}

// reconcile sums a run's operations into one ledger, checks it against
// unattributedTol and returns its unattributed share.
func reconcile(ops []opLedger) (float64, error) {
	var sum opLedger
	for _, o := range ops {
		sum.wall += o.wall
		sum.build += o.build
		sum.exec += o.exec
		sum.finish += o.finish
		sum.tasks += o.tasks
		sum.capacity += o.capacity
	}
	un := sum.unattributed()
	fmt.Printf("ledger run: build %.3fms + exec %.3fms + finish %.3fms = %.3fms of engine wall %.3fms over %d ops; tasks %.3fms of workers x exec %.3fms; unattributed %.3g (tolerance %.2g)\n",
		1e3*sum.build, 1e3*sum.exec, 1e3*sum.finish, 1e3*(sum.build+sum.exec+sum.finish), 1e3*sum.wall, len(ops), 1e3*sum.tasks, 1e3*sum.capacity, un, unattributedTol)
	if !(un <= unattributedTol) {
		return un, fmt.Errorf("invalid run: the traced phases leave %.3g of wall time unattributed over %d ops, over %.2g", un, len(ops), unattributedTol)
	}
	return un, nil
}

// traceIndex offsets the traced run's matrix streams from the end-to-end
// run's.
const traceIndex = 1 << 41

// taskKinds are the task classes the ledger splits task time into, by the
// first letter of each task's label: panel reduction (P), panel L block
// (L), pivoting + U block row (U), trailing update (S) and the panel
// finish that applies the tournament's winners (F).
var taskKinds = []byte{'P', 'L', 'U', 'S', 'F'}

// listedKinds are the task kinds every workload runs, and so the ones
// reported as metrics: a single panel (tall-skinny) has no U or S tasks,
// and a metric that reads 0 cannot be compared; U and S are printed.
var listedKinds = []byte{'P', 'L', 'F'}

// ledger accumulates the in-process legs' samples.
type ledger struct {
	ops                      int
	engine                   []float64 // untraced engine seconds per call
	tracedRatio              []float64 // traced/untraced engine time, per input
	calls, mallocs, bytes    uint64    // untraced engine calls and their allocations
	phases                   []opLedger
	tasks, edges             int
	kind                     map[byte]float64 // task seconds by kind
	calu, caqr, getrf, geqrf []float64        // seconds, interleaved
	kernels                  map[string][]float64
	readyHighWater           int64
}

// permOf returns the row permutation of a core LU result as a vector: row
// i of PA is row perm[i] of A.
func permOf(res *core.LUResult) []int {
	m := res.A.Rows
	lab := matrix.New(m, 1)
	for i := 0; i < m; i++ {
		lab.Set(i, 0, float64(i))
	}
	res.ApplyPerm(lab)
	p := make([]int, m)
	for i := range p {
		p[i] = int(lab.At(i, 0))
	}
	return p
}

// corePath runs one factorization of env.orig as core.Prepare*, a traced
// pool submission and Finish, records each phase against wall, the
// untraced engine call's time on the same input, and checks the result.
func (r *runner) corePath(ctx context.Context, env *batchEnv, pool *sched.Pool, qr bool, index uint64, wall float64, l *ledger) error {
	opt := core.Options{BlockSize: env.opt.BlockSize, PanelThreads: r.workers, Tree: tslu.Binary, Workers: r.workers, Lookahead: true}
	env.work.CopyFrom(env.orig)
	var g *sched.Graph
	var lu *core.PreparedLU
	var qp *core.PreparedQR
	var err error
	b0 := time.Now()
	if qr {
		qp, err = core.PrepareCAQR(env.work, opt)
	} else {
		lu, err = core.PrepareCALU(env.work, opt)
	}
	b1 := time.Now()
	if err != nil {
		return err
	}
	if qr {
		g = qp.Graph()
	} else {
		g = lu.Graph()
	}
	tasks, edges := g.Len(), g.Edges()
	e0 := time.Now()
	sub, err := pool.SubmitCtx(ctx, g, sched.SubmitOptions{Trace: true})
	if err != nil {
		return err
	}
	events, runErr := sub.Wait()
	e1 := time.Now()
	var lres *core.LUResult
	var qres *core.QRResult
	f0 := time.Now()
	if qr {
		qres, err = qp.Finish(runErr)
	} else {
		lres, err = lu.Finish(runErr)
	}
	f1 := time.Now()
	if err != nil {
		return err
	}

	o := opLedger{wall: wall, build: b1.Sub(b0).Seconds(), exec: e1.Sub(e0).Seconds(), finish: f1.Sub(f0).Seconds()}
	kinds := map[byte]float64{}
	for _, ev := range events {
		d := (ev.End - ev.Start).Seconds()
		o.tasks += d
		kinds[g.Task(ev.TaskID).Label[0]] += d
	}
	o.capacity = float64(r.workers) * o.exec
	fmt.Printf("ledger %s op %d: build %.3fms + exec %.3fms + finish %.3fms = %.3fms of engine wall %.3fms; tasks %.3fms of %d x exec %.3fms (idle %.3fms); unattributed %.2g\n",
		map[bool]string{false: "LU", true: "QR"}[qr], index-traceIndex, 1e3*o.build, 1e3*o.exec, 1e3*o.finish, 1e3*(o.build+o.exec+o.finish), 1e3*wall,
		1e3*o.tasks, r.workers, 1e3*o.capacity, 1e3*(o.capacity-o.tasks), o.unattributed())
	var check error
	if qr {
		back, orth := checkQR(env.orig, qres, r.seed, index)
		check = checkAll(back, orth)
	} else {
		check = checkAll(checkLU(env.orig, lres.A, permOf(lres), r.seed, index))
	}
	if check != nil {
		r.wrong++
		return check
	}
	l.phases = append(l.phases, o)
	for k, d := range kinds {
		l.kind[k] += d
	}
	l.tasks += tasks
	l.edges += edges
	return nil
}

// reference runs the blocked LAPACK routine on env.orig and checks it.
func (r *runner) reference(env *batchEnv, qr bool, index uint64) (float64, error) {
	env.work.CopyFrom(env.orig)
	n, b := env.work.Cols, env.opt.BlockSize
	var d float64
	var check error
	if qr {
		tau := make([]float64, n)
		t0 := time.Now()
		lapack.GEQRF(env.work, tau, b)
		d = time.Since(t0).Seconds()
		check = checkAll(checkGram(env.orig, lapack.ExtractR(env.work), r.seed, index))
	} else {
		ipiv := make([]int, n)
		t0 := time.Now()
		if err := lapack.GETRF(env.work, ipiv, b); err != nil {
			return 0, err
		}
		d = time.Since(t0).Seconds()
		check = checkAll(checkLU(env.orig, env.work, lapack.IpivToPerm(ipiv, env.work.Rows), r.seed, index))
	}
	if check != nil {
		r.wrong++
	}
	return d, check
}

// engineLeg runs rounds of (untraced engine, traced engine, core path,
// LAPACK reference) for LU then QR until the budget is spent.
func (r *runner) engineLeg(ctx context.Context, env *batchEnv, budget time.Duration, l *ledger) error {
	pool := sched.NewPool(r.workers)
	defer pool.Close()
	traced := env.opt
	traced.Trace = true
	deadline := time.Now().Add(budget)
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		for k, qr := range []bool{false, true} {
			if err := ctx.Err(); err != nil {
				return err
			}
			index := traceIndex + uint64(2*i+k)
			fillMatrix(env.orig, r.seed, index)
			r.attempted++
			plain := env.engineOp(ctx, qr, env.opt)
			l.calls++
			l.mallocs += plain.mallocs
			l.bytes += plain.bytes
			if err := r.opErr(env, plain, index); err != nil {
				r.fail("engine op %d: %v", index, err)
				continue
			}
			r.attempted++
			tr := env.engineOp(ctx, qr, traced)
			if err := r.opErr(env, tr, index); err != nil {
				r.fail("traced engine op %d: %v", index, err)
				continue
			}
			r.attempted++
			if err := r.corePath(ctx, env, pool, qr, index, plain.seconds, l); err != nil {
				r.fail("core path op %d: %v", index, err)
				continue
			}
			r.attempted++
			ref, err := r.reference(env, qr, index)
			if err != nil {
				r.fail("reference op %d: %v", index, err)
				continue
			}
			l.ops++
			l.engine = append(l.engine, plain.seconds)
			l.tracedRatio = append(l.tracedRatio, tr.seconds/plain.seconds)
			if qr {
				l.caqr = append(l.caqr, plain.seconds)
				l.geqrf = append(l.geqrf, ref)
			} else {
				l.calu = append(l.calu, plain.seconds)
				l.getrf = append(l.getrf, ref)
			}
		}
	}
	l.readyHighWater = pool.Metrics().ReadyHighWater
	return nil
}

// opErr is an engine call's error, or its check's.
func (r *runner) opErr(env *batchEnv, s opSample, index uint64) error {
	if s.err != nil {
		return s.err
	}
	if err := r.checkOp(env, s, index); err != nil {
		r.wrong++
		return err
	}
	return nil
}

// kernelLeg times the panel and kernel routines at the shapes the
// workload's factorization issues: the TSLU/TSQR panel (m x b over Tr
// block rows), the row swaps over the trailing columns (over the panel's
// own b columns when there are none), the RGETF2 leaf, and the GEMM and
// TRSM calls of the S, L and U tasks.
func (r *runner) kernelLeg(ctx context.Context, env *batchEnv, budget time.Duration, l *ledger) error {
	s := env.work
	m, n, b, tr := s.Rows, s.Cols, env.opt.BlockSize, r.workers
	fillMatrix(env.orig, r.seed, traceIndex-1)
	src := env.orig.View(0, 0, m, b)
	panel := src.Clone()
	buf := matrix.New(m, b)

	// The factored panel supplies realistic operands: its top b x b block
	// holds U (upper) and the unit-lower L11, its rows below hold L21.
	swaps, err := tslu.Factor(panel, tr, tslu.Binary)
	if err != nil {
		return fmt.Errorf("tslu.Factor: %w", err)
	}
	rows := (m - b) / tr
	trail := env.orig.View(0, 0, m, max(n-b, b))
	swapBuf := trail.Clone()
	leafRows := m / tr
	ipiv := make([]int, b)
	l21 := panel.View(b, 0, rows, b)
	u := panel.View(0, 0, b, b)
	c := matrix.New(rows, b)
	x := matrix.New(b, b)

	type kernel struct {
		name  string
		flops float64
		prep  func()
		run   func() error
	}
	ks := []kernel{
		{"tslu", luFlops(m, b), func() { buf.CopyFrom(src) }, func() error {
			_, err := tslu.Factor(buf, tr, tslu.Binary)
			return err
		}},
		{"tsqr", qrFlops(m, b), func() { buf.CopyFrom(src) }, func() error {
			tsqr.FactorTree(buf, tr, tsqr.Binary, false)
			return nil
		}},
		{"laswp", 0, func() { swapBuf.CopyFrom(trail) }, func() error {
			tslu.ApplyPivots(swapBuf, swaps, 0)
			return nil
		}},
		{"rgetf2", luFlops(leafRows, b), func() { buf.CopyFrom(src) }, func() error {
			return lapack.RGETF2(buf.View(0, 0, leafRows, b), ipiv)
		}},
		{"gemm", 2 * float64(rows) * float64(b) * float64(b), func() { c.CopyFrom(src.View(b, 0, rows, b)) }, func() error {
			blas.Dgemm(blas.NoTrans, blas.NoTrans, rows, b, b, -1, l21.Data, l21.Stride, u.Data, u.Stride, 1, c.Data, c.Stride)
			return nil
		}},
		{"trsm_right", float64(rows) * float64(b) * float64(b), func() { c.CopyFrom(src.View(b, 0, rows, b)) }, func() error {
			blas.Dtrsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, rows, b, 1, u.Data, u.Stride, c.Data, c.Stride)
			return nil
		}},
		{"trsm_left", float64(b) * float64(b) * float64(b), func() { x.CopyFrom(src.View(b, 0, b, b)) }, func() error {
			blas.Dtrsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, b, b, 1, u.Data, u.Stride, x.Data, x.Stride)
			return nil
		}},
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		for _, k := range ks {
			if err := ctx.Err(); err != nil {
				return err
			}
			k.prep()
			t0 := time.Now()
			err := k.run()
			d := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			if k.flops > 0 {
				d = gflops(k.flops, d)
			}
			l.kernels[k.name] = append(l.kernels[k.name], d)
		}
	}
	return nil
}

// inProcess runs both in-process legs at the workload's layer shape within
// budget and reports their per-layer metrics.
func (r *runner) inProcess(ctx context.Context, budget time.Duration) error {
	s := r.w.Shape
	env, _, err := r.setupBatch(ctx, s, 1)
	if err != nil {
		return err
	}
	defer env.eng.Close()
	l := &ledger{kind: map[byte]float64{}, kernels: map[string][]float64{}}
	if err := r.engineLeg(ctx, env, budget*6/10, l); err != nil {
		return err
	}
	if err := r.kernelLeg(ctx, env, budget*4/10, l); err != nil {
		return err
	}
	if l.ops == 0 {
		return fmt.Errorf("no traced operation succeeded")
	}
	unattributed, err := reconcile(l.phases)
	if err != nil {
		return err
	}
	ops := float64(l.ops)
	ms := func(sec float64) float64 { return 1e3 * sec }
	var build, finish, tasks, capacity float64
	for _, o := range l.phases {
		build, finish, tasks, capacity = build+o.build, finish+o.finish, tasks+o.tasks, capacity+o.capacity
	}
	r.set("factor.engine_ms_mean", ms(mean(l.engine)), "ms")
	r.set("core.build_ms", ms(build)/ops, "ms")
	r.set("core.finish_ms", ms(finish)/ops, "ms")
	r.set("core.tasks_per_op", float64(l.tasks)/ops, "count")
	r.set("core.edges_per_op", float64(l.edges)/ops, "count")
	r.set("sched.busy_frac", tasks/capacity, "frac")
	r.set("sched.idle_ms_per_op", ms(capacity-tasks)/ops, "ms")
	fmt.Print("sched: task ms per op by kind:")
	for _, k := range taskKinds {
		fmt.Printf(" %c %.3f", k, ms(l.kind[k])/ops)
	}
	fmt.Println()
	for _, k := range listedKinds {
		r.set("sched.task_ms."+string(k), ms(l.kind[k])/ops, "ms")
	}
	r.set("sched.ready_high_water", float64(l.readyHighWater), "count")
	r.set("tslu.panel_gflops", median(l.kernels["tslu"]), "GFlop/s")
	r.set("tsqr.panel_gflops", median(l.kernels["tsqr"]), "GFlop/s")
	r.set("tslu.laswp_ms", ms(median(l.kernels["laswp"])), "ms")
	gemm, right := median(l.kernels["gemm"]), median(l.kernels["trsm_right"])
	r.set("blas.gemm_gflops", gemm, "GFlop/s")
	r.set("blas.trsm_right_gflops", right, "GFlop/s")
	r.set("blas.trsm_left_gflops", median(l.kernels["trsm_left"]), "GFlop/s")
	r.set("blas.trsm_over_gemm", right/gemm, "ratio")
	r.set("lapack.rgetf2_gflops", median(l.kernels["rgetf2"]), "GFlop/s")
	r.set("lapack.getrf_gflops", gflops(luFlops(s.M, s.N), median(l.getrf)), "GFlop/s")
	r.set("lapack.geqrf_gflops", gflops(qrFlops(s.M, s.N), median(l.geqrf)), "GFlop/s")
	r.set("lapack.calu_over_getrf", median(l.getrf)/median(l.calu), "ratio")
	r.set("lapack.caqr_over_geqrf", median(l.geqrf)/median(l.caqr), "ratio")
	r.set("go.allocs_per_op", float64(l.mallocs)/float64(l.calls), "count")
	// Whole-run mean, so the engine refilling its pooled scratch after a
	// collection counts (alloc_mb_per_op is the median call).
	r.set("go.alloc_mb_per_op", float64(l.bytes)/float64(l.calls)/1e6, "MB")
	r.set("trace.unattributed_frac", unattributed, "frac")
	// A ratio rather than the overhead itself: the overhead is within the
	// host's noise of 0 and reads either sign.
	r.set("trace.traced_over_untraced", median(l.tracedRatio), "ratio")
	fmt.Printf("layers: %d inputs at %dx%d (b=%d, Tr=%d); kernel medians over %d rounds\n",
		l.ops, s.M, s.N, s.B, r.workers, len(l.kernels["gemm"]))
	return nil
}

// lapackReference measures blocked GETRF and GEQRF at a fixed 2000x200
// shape, the same-run host reference printed with every result.
func lapackReference(seed int64) map[string]float64 {
	const m, n, nb, reps = 2000, 200, 100, 3
	a := genMatrix(m, n, seed, warmIndex-1)
	w := a.Clone()
	var lu, qr []float64
	ipiv, tau := make([]int, n), make([]float64, n)
	for i := 0; i < reps; i++ {
		w.CopyFrom(a)
		t0 := time.Now()
		_ = lapack.GETRF(w, ipiv, nb) // a random matrix is nonsingular; only the time is used
		lu = append(lu, time.Since(t0).Seconds())
		w.CopyFrom(a)
		t0 = time.Now()
		lapack.GEQRF(w, tau, nb)
		qr = append(qr, time.Since(t0).Seconds())
	}
	return map[string]float64{
		"ref_getrf_2000x200_gflops": gflops(luFlops(m, n), median(lu)),
		"ref_geqrf_2000x200_gflops": gflops(qrFlops(m, n), median(qr)),
	}
}
