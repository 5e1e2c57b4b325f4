// Command lufact factors a random test matrix with a chosen LU algorithm,
// times it, and verifies the result, exercising every LU path in the
// repository from the command line.
//
// Usage:
//
//	lufact -m 4000 -n 400 -alg calu -tr 8 -workers 8
//	lufact -m 1000 -n 1000 -alg tiled -tile 128
//	lufact -m 2000 -n 200 -alg getrf        # blocked GEPP baseline
//	lufact -m 2000 -n 200 -alg getf2        # BLAS-2 baseline
//
// Robustness knobs (calu only):
//
//	-growth-threshold 100   arm the pivot-growth guardrail: panels whose
//	                        element growth exceeds the threshold are
//	                        re-factored with GEPP and counted in the
//	                        degradation report
//	-chaos-seed 15          inject deterministic faults (task panics and
//	                        spurious errors) through the self-healing
//	                        engine; the run must still produce a correct
//	                        factorization, healed by retries
//
// With either knob set, the calu path runs on a factor.Engine and prints a
// one-line degradation report (fallback panels, retries, shed, stalls).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/factor"
	"repro/internal/baseline"
	"repro/internal/blas"
	"repro/internal/fault"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/stability"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

func main() {
	var (
		m       = flag.Int("m", 2000, "rows")
		n       = flag.Int("n", 200, "columns")
		alg     = flag.String("alg", "calu", "calu | tslu | getrf | getf2 | pgetrf | tiled")
		b       = flag.Int("b", 100, "panel block size (calu)")
		tr      = flag.Int("tr", 4, "panel parallelism Tr (calu, tslu)")
		workers = flag.Int("workers", 4, "worker goroutines")
		tile    = flag.Int("tile", 128, "tile size (tiled)")
		flat    = flag.Bool("flat", false, "flat reduction tree (calu, tslu)")
		seed    = flag.Int64("seed", 1, "matrix seed")
		growth  = flag.Float64("growth-threshold", 0, "pivot-growth guardrail threshold; panels above it re-factor with GEPP (calu; 0 = off)")
		chaos   = flag.Int64("chaos-seed", 0, "inject deterministic faults with this seed through the self-healing engine (calu; 0 = off)")
		crit    = flag.Bool("critical-path", false, "trace the run and report the longest dependency chain (calu)")
	)
	flag.Parse()
	if *crit && *alg != "calu" {
		fmt.Fprintln(os.Stderr, "-critical-path requires -alg calu (the scheduled path)")
		os.Exit(2)
	}

	orig := matrix.Random(*m, *n, *seed)
	a := orig.Clone()
	tree := tslu.Binary
	if *flat {
		tree = tslu.Flat
	}

	var report stability.LUReport
	start := time.Now()
	switch *alg {
	case "calu":
		ftree := factor.Binary
		if *flat {
			ftree = factor.Flat
		}
		cfg := factor.EngineConfig{Workers: *workers}
		var inj *fault.Injector
		if *chaos != 0 {
			inj = fault.New(*chaos,
				fault.Rule{Kind: fault.Panic, Rate: 0.01, Count: 2},
				fault.Rule{Kind: fault.Error, Rate: 0.01, Count: 2},
			)
			cfg.Interceptor = inj.Intercept
			// Selection is deterministic by task label, so the same tasks
			// trip on every attempt until the rules' budgets (2 panics + 2
			// errors) are spent; the retry allowance must cover all four.
			cfg.MaxRetries = 5
		}
		eng := factor.NewEngineWithConfig(cfg)
		defer eng.Close()
		opt := factor.Options{BlockSize: *b, PanelThreads: *tr, Tree: ftree, GrowthThreshold: *growth, Trace: *crit}
		lu, err := eng.LUCtx(context.Background(), a, opt)
		fail(err)
		elapsedReport(start, *m, *n)
		pa := orig.Clone()
		lu.Permute(pa)
		report = verify(a, pa, orig)
		st := eng.Stats()
		fmt.Printf("degradation:  fallback-panels=%d retries=%d shed=%d stalled=%d\n",
			len(lu.FallbackPanels()), st.Retries, st.Shed, st.Stalled)
		if inj != nil {
			fmt.Printf("chaos:        injected panics=%d errors=%d\n",
				inj.Injected(fault.Panic), inj.Injected(fault.Error))
		}
		if *crit {
			cp, err := lu.CriticalPath()
			fail(err)
			cp.Report(os.Stdout)
		}
	case "tslu":
		sw, err := tslu.Factor(a, *tr, tree)
		fail(err)
		elapsedReport(start, *m, *n)
		pa := orig.Clone()
		tslu.ApplyPivots(pa, sw, 0)
		report = verify(a, pa, orig)
	case "getrf":
		ipiv := make([]int, min(*m, *n))
		fail(lapack.GETRF(a, ipiv, *b))
		elapsedReport(start, *m, *n)
		pa := orig.Clone()
		lapack.LASWP(pa, ipiv, 0, len(ipiv))
		report = verify(a, pa, orig)
	case "pgetrf":
		ipiv := make([]int, min(*m, *n))
		fail(lapack.PGETRF(a, ipiv, *b, *workers))
		elapsedReport(start, *m, *n)
		pa := orig.Clone()
		lapack.LASWP(pa, ipiv, 0, len(ipiv))
		report = verify(a, pa, orig)
	case "getf2":
		ipiv := make([]int, min(*m, *n))
		fail(lapack.GETF2(a, ipiv))
		elapsedReport(start, *m, *n)
		pa := orig.Clone()
		lapack.LASWP(pa, ipiv, 0, len(ipiv))
		report = verify(a, pa, orig)
	case "tiled":
		if *m != *n {
			fmt.Fprintln(os.Stderr, "tiled verification requires a square matrix")
		}
		lu, err := tiled.GETRF(context.Background(), a, tiled.Options{TileSize: *tile, Workers: *workers})
		fail(err)
		elapsedReport(start, *m, *n)
		if *m == *n {
			solErr := stability.SolveError(orig, *seed+1, func(rhs *matrix.Dense) error {
				lu.Solve(rhs)
				return nil
			})
			fmt.Printf("solve error:  %.3g\n", solErr)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}
	fmt.Printf("residual:     %.3g\n", report.Residual)
	fmt.Printf("growth:       %.3g\n", report.Growth)
}

func verify(fac, pa, orig *matrix.Dense) stability.LUReport {
	l, u := lapack.ExtractLU(fac)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	diff := 0.0
	for j := 0; j < pa.Cols; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			d := x[i] - y[i]
			diff += d * d
		}
	}
	return stability.LUReport{
		Growth:   lapack.GrowthFactor(fac, orig),
		Residual: math.Sqrt(diff) / (orig.NormFrobenius() + 1e-300),
	}
}

func elapsedReport(start time.Time, m, n int) {
	secs := time.Since(start).Seconds()
	gf := baseline.LUFlops(m, n) / secs / 1e9
	fmt.Printf("factored %dx%d in %.3fs (%.2f GFlop/s canonical)\n", m, n, secs, gf)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
