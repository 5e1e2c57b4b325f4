// Command cabench regenerates the paper's tables and figures.
//
// Usage:
//
//	cabench -list
//	cabench -exp fig5                  # one experiment, modeled at paper scale
//	cabench -exp all                   # everything
//	cabench -exp table1 -measured     # real execution at reduced scale
//	cabench -exp fig8 -workers 8 -v
//	cabench -gemm -json BENCH_gemm.json -min-speedup 1.5
//	cabench -obs-overhead 3            # fail if scheduler metrics cost >3%
//
// Modeled mode (default) builds the algorithms' real task graphs at the
// paper's sizes and schedules them in virtual time on the calibrated
// machine models; measured mode runs the actual factorizations at reduced
// sizes and reports wall-clock GFlop/s.
//
// -gemm runs the kernel-level performance trajectory instead: packed
// Goto-style Dgemm against the frozen baseline across square and panel
// shapes, the fused Dtrsm at CALU's L-block and U-block shapes against
// baseline.RefTrsm, plus the engine-reuse end-to-end LU, optionally
// writing the
// BENCH_gemm.json report and failing (exit 1) when the square-512 speedup
// drops below -min-speedup. CI's benchmark-smoke job runs exactly that
// gate; the checked-in BENCH_gemm.json is regenerated with a longer
// -sample for stable numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		measured = flag.Bool("measured", false, "run real factorizations at reduced scale instead of the paper-scale model")
		workers  = flag.Int("workers", 0, "goroutines for measured runs (0 = NumCPU)")
		verbose  = flag.Bool("v", false, "print progress")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")

		gemm       = flag.Bool("gemm", false, "run the GEMM kernel trajectory instead of paper experiments")
		jsonPath   = flag.String("json", "", "with -gemm: write the report as JSON to this path")
		minSpeedup = flag.Float64("min-speedup", 0, "with -gemm: exit 1 if the square-512 packed/baseline speedup is below this")
		sample     = flag.Duration("sample", 200*time.Millisecond, "with -gemm: minimum measurement window per case")

		obsOverhead = flag.Float64("obs-overhead", 0, "measure scheduler-instrumentation overhead on engine-reuse; exit 1 if it exceeds this percent")
		obsRounds   = flag.Int("obs-rounds", 3, "with -obs-overhead: alternating on/off measurement rounds")

		verifyOverhead = flag.Float64("verify-overhead", 0, "measure ABFT checksum-verification overhead on engine-reuse; exit 1 if it exceeds this percent")
		verifyRounds   = flag.Int("verify-rounds", 3, "with -verify-overhead: alternating on/off measurement rounds")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	cfg := bench.Config{Workers: *workers}
	if *measured {
		cfg.Mode = bench.Measured
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	ctx := context.Background()
	if *gemm {
		runGemm(ctx, cfg, *jsonPath, *minSpeedup, *sample)
		return
	}
	if *obsOverhead > 0 {
		runOverhead(ctx, cfg, bench.ObsOverhead, *obsOverhead, *obsRounds)
		return
	}
	if *verifyOverhead > 0 {
		runOverhead(ctx, cfg, bench.VerifyOverhead, *verifyOverhead, *verifyRounds)
		return
	}

	emit := func(t *bench.Table) {
		t.Format(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "csv:", err)
				os.Exit(1)
			}
			t.WriteCSV(f)
			f.Close()
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			emit(e.Run(ctx, cfg))
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	emit(e.Run(ctx, cfg))
}

// runGemm executes the kernel trajectory, optionally writes the JSON
// report, and enforces the regression gate on the square-512 speedup.
func runGemm(ctx context.Context, cfg bench.Config, jsonPath string, minSpeedup float64, sample time.Duration) {
	rep := bench.RunGemmReport(ctx, cfg, sample)
	rep.Table().Format(os.Stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	if minSpeedup > 0 {
		got := rep.SpeedupAt("square-512")
		if got < minSpeedup {
			fmt.Fprintf(os.Stderr, "gemm regression gate: square-512 speedup %.2fx < required %.2fx\n", got, minSpeedup)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gemm gate ok: square-512 speedup %.2fx >= %.2fx\n", got, minSpeedup)
	}
}

// runOverhead runs one overhead gate: engine-reuse with the feature on vs
// off, best round each, failing when the relative cost exceeds maxPct.
func runOverhead(ctx context.Context, cfg bench.Config, ov bench.Overhead, maxPct float64, rounds int) {
	res := bench.RunOverhead(ctx, cfg, ov, rounds)
	fmt.Printf("%s overhead: %s %.2f ms/op, %s %.2f ms/op, overhead %.2f%% (%d rounds, best each)\n",
		ov.Name, ov.On, res.OnMsPerOp, ov.Off, res.OffMsPerOp, res.OverheadPct, res.Rounds)
	if res.OverheadPct > maxPct {
		fmt.Fprintf(os.Stderr, "%s overhead gate: %.2f%% > allowed %.2f%%\n", ov.Name, res.OverheadPct, maxPct)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s overhead gate ok: %.2f%% <= %.2f%%\n", ov.Name, res.OverheadPct, maxPct)
}
