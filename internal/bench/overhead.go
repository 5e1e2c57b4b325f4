package bench

// Overhead gates: an optional feature on the engine-reuse workload must
// stay cheap enough to leave on. RunOverhead times the workload with the
// feature on and off in alternating rounds of the same process — same heap
// state, same thermal envelope — and compares the best round of each side,
// so one GC pause or scheduler hiccup cannot fake (or hide) a regression.
// cmd/cabench -obs-overhead and -verify-overhead wire the two gates into CI
// with percentage ceilings.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/factor"
	"repro/internal/sched"
)

// The engine-reuse workload: repeated 1000 x 200 blocked CALU through a
// persistent 4-worker engine (BenchmarkEngineReuse's shape).
const (
	reuseM, reuseN, reuseB = 1000, 200, 100
	reuseIters             = 10
)

var reuseOptions = factor.Options{BlockSize: reuseB, PanelThreads: 4}

// engineReuseMs times one engine-reuse pass with opt on a fresh engine,
// after one warmup call, clone excluded, and returns ms per call.
func engineReuseMs(ctx context.Context, opt factor.Options) float64 {
	orig := factor.Random(reuseM, reuseN, 3)
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 4})
	defer eng.Close()
	if _, err := eng.LUCtx(ctx, orig.Clone(), opt); err != nil {
		panic(fmt.Sprintf("bench: engine-reuse warmup LU failed: %v", err))
	}
	var total time.Duration
	for i := 0; i < reuseIters; i++ {
		a := orig.Clone()
		start := time.Now()
		if _, err := eng.LUCtx(ctx, a, opt); err != nil {
			panic(fmt.Sprintf("bench: engine-reuse LU failed: %v", err))
		}
		total += time.Since(start)
	}
	return total.Seconds() * 1e3 / reuseIters
}

// Overhead is a feature the engine-reuse workload can run with and
// without.
type Overhead struct {
	// Name labels progress and the report; On and Off name the two sides.
	Name, On, Off string
	// Arm switches the feature for the engines created after it and
	// returns the request options of a run.
	Arm func(on bool) factor.Options
}

var (
	// ObsOverhead is the scheduler's always-on instrumentation
	// (internal/sched per-worker counters and kind histograms).
	ObsOverhead = Overhead{Name: "obs", On: "instrumented", Off: "uninstrumented",
		Arm: func(on bool) factor.Options {
			sched.SetInstrumentation(on)
			return reuseOptions
		}}
	// VerifyOverhead is ABFT checksum verification (factor.Options.Verify):
	// O(mn) column-sum work per panel against the O(mn^2) factorization.
	VerifyOverhead = Overhead{Name: "verify", On: "verified", Off: "unverified",
		Arm: func(on bool) factor.Options {
			opt := reuseOptions
			opt.Verify = on
			return opt
		}}
)

// OverheadResult is one paired measurement of a feature's cost.
type OverheadResult struct {
	// Rounds is how many on/off pairs ran; the reported times are the
	// minimum over rounds (the least-disturbed run of each side).
	Rounds int `json:"rounds"`
	// OnMsPerOp and OffMsPerOp are the best engine-reuse times with the
	// feature on and off.
	OnMsPerOp  float64 `json:"on_ms_per_op"`
	OffMsPerOp float64 `json:"off_ms_per_op"`
	// OverheadPct is 100 * (on - off) / off; negative values (noise) mean
	// the feature's side happened to run faster.
	OverheadPct float64 `json:"overhead_pct"`
}

// RunOverhead measures ov's overhead on the engine-reuse workload and
// leaves the feature armed (the instrumentation's always-on default).
// rounds <= 0 defaults to 3.
func RunOverhead(ctx context.Context, cfg Config, ov Overhead, rounds int) *OverheadResult {
	if rounds <= 0 {
		rounds = 3
	}
	defer ov.Arm(true)
	minOn, minOff := math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		progress(cfg, "%s-overhead round %d/%d: %s...", ov.Name, r+1, rounds, ov.On)
		minOn = math.Min(minOn, engineReuseMs(ctx, ov.Arm(true)))
		progress(cfg, "%s-overhead round %d/%d: %s...", ov.Name, r+1, rounds, ov.Off)
		minOff = math.Min(minOff, engineReuseMs(ctx, ov.Arm(false)))
	}
	res := &OverheadResult{Rounds: rounds, OnMsPerOp: minOn, OffMsPerOp: minOff}
	if minOff > 0 {
		res.OverheadPct = 100 * (minOn - minOff) / minOff
	}
	return res
}
