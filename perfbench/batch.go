package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/factor"
)

// setupRounds is how many times a run sets up its workload; setup_s is the
// median.
const setupRounds = 5

// minRounds is the least number of CALU+CAQR pairs a batch run times,
// however short --seconds is.
const minRounds = 3

// warmIndex offsets the matrix streams used during set-up, so timed inputs
// are never ones the engine has seen.
const warmIndex = 1 << 40

// batchEnv is a set-up batch workload: a running engine and reusable input
// buffers (orig keeps the input for the check; work is factored in place).
type batchEnv struct {
	eng        *factor.Engine
	opt        factor.Options
	orig, work *factor.Matrix
}

// setupBatch starts an engine with Workers = nproc, generates a first
// input and warms the engine with one CALU and one CAQR, rounds times
// (closing all but the last engine). It returns the median set-up time.
func (r *runner) setupBatch(ctx context.Context, s shape, rounds int) (*batchEnv, float64, error) {
	var env *batchEnv
	times := make([]float64, 0, rounds)
	for k := 0; k < rounds; k++ {
		if env != nil {
			env.eng.Close()
		}
		t0 := time.Now()
		env = &batchEnv{
			eng:  factor.NewEngineWithConfig(factor.EngineConfig{Workers: r.workers}),
			opt:  factor.Options{BlockSize: s.B, PanelThreads: r.workers, Tree: factor.Binary},
			orig: genMatrix(s.M, s.N, r.seed, warmIndex+uint64(k)),
		}
		env.work = env.orig.Clone()
		if _, err := env.eng.LUCtx(ctx, env.work, env.opt); err != nil {
			env.eng.Close()
			return nil, 0, fmt.Errorf("warm-up LU: %w", err)
		}
		env.work.CopyFrom(env.orig)
		if _, err := env.eng.QRCtx(ctx, env.work, env.opt); err != nil {
			env.eng.Close()
			return nil, 0, fmt.Errorf("warm-up QR: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

// opSample is one timed engine call.
type opSample struct {
	seconds        float64
	bytes, mallocs uint64
	err            error
	lu             *factor.LUFactorization
	qr             *factor.QRFactorization
}

// engineOp factors a fresh copy of env.orig on the engine and measures the
// call's wall time and heap allocation.
func (env *batchEnv) engineOp(ctx context.Context, qr bool, opt factor.Options) opSample {
	env.work.CopyFrom(env.orig)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var s opSample
	if qr {
		s.qr, s.err = env.eng.QRCtx(ctx, env.work, opt)
	} else {
		s.lu, s.err = env.eng.LUCtx(ctx, env.work, opt)
	}
	s.seconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	return s
}

// checkOp verifies an engine result against env.orig; index names the
// operation's probe stream.
func (r *runner) checkOp(env *batchEnv, s opSample, index uint64) error {
	if s.err != nil {
		return nil
	}
	if s.lu != nil {
		return checkAll(checkLU(env.orig, s.lu.Factors(), s.lu.PermutationVector(), r.seed, index))
	}
	back, orth := checkQR(env.orig, s.qr, r.seed, index)
	return checkAll(back, orth)
}

// batch is the end-to-end run of a batch workload: one closed-loop caller
// alternating CALU and CAQR on fresh seeded matrices. It reports no tail
// latency: over the few dozen calls a run makes, the slowest ones move far
// more between runs than the median.
func (r *runner) batch(ctx context.Context) error {
	s := r.w.Shape
	env, setup, err := r.setupBatch(ctx, s, setupRounds)
	if err != nil {
		return err
	}
	defer env.eng.Close()
	r.set("setup_s", setup, "s")

	var luT, qrT, luB, qrB []float64
	var calls, allocated uint64 // every timed call, so refills of the engine's pooled scratch count
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	deadline := time.Now().Add(r.dur)
	for i := 0; i < 2*minRounds || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		qr := i%2 == 1
		fillMatrix(env.orig, r.seed, uint64(i))
		op := env.engineOp(ctx, qr, env.opt)
		r.attempted++
		calls++
		allocated += op.bytes
		if op.err != nil {
			r.fail("op %d: %v", i, op.err)
			continue
		}
		if err := r.checkOp(env, op, uint64(i)); err != nil {
			r.checked(fmt.Sprintf("op %d", i), err)
			continue
		}
		if qr {
			qrT, qrB = append(qrT, op.seconds), append(qrB, float64(op.bytes))
		} else {
			luT, luB = append(luT, op.seconds), append(luB, float64(op.bytes))
		}
	}
	if len(luT) == 0 || len(qrT) == 0 {
		return fmt.Errorf("no successful LU or QR")
	}
	r.set("lu_gflops", gflops(luFlops(s.M, s.N), median(luT)), "GFlop/s")
	r.set("qr_gflops", gflops(qrFlops(s.M, s.N), median(qrT)), "GFlop/s")
	// The median call, not the whole-run mean: a collection that finds the
	// engine's pooled scratch idle makes the next call refill it, tens of MB
	// at once, and whether a run crosses such a collection turns on how many
	// calls it makes. The whole-run mean is printed here and is the traced
	// run's go.alloc_mb_per_op.
	r.set("alloc_mb_per_op", (median(luB)+median(qrB))/2/1e6, "MB")
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	fmt.Printf("batch: %d CALU and %d CAQR calls at %dx%d (b=%d, Tr=%d); GFlop/s over the median call\n",
		len(luT), len(qrT), s.M, s.N, s.B, r.workers)
	fmt.Printf("batch: heap MB per call: median CALU %.4f, CAQR %.4f; whole-run mean %.4f over %d calls and %d collections\n",
		median(luB)/1e6, median(qrB)/1e6, float64(allocated)/float64(calls)/1e6, calls, gc1.NumGC-gc0.NumGC)
	return nil
}
