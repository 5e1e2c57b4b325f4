// Command qrfact factors a random test matrix with a chosen QR algorithm,
// times it, and verifies the result (residual and orthogonality).
//
// Usage:
//
//	qrfact -m 10000 -n 100 -alg tsqr -tr 8
//	qrfact -m 4000 -n 400 -alg caqr -b 100 -tr 4 -flat
//	qrfact -m 1000 -n 1000 -alg tiled -tile 128
//	qrfact -m 2000 -n 200 -alg geqrf          # blocked Householder baseline
//	qrfact -m 2000 -n 200 -alg geqr2          # BLAS-2 baseline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/stability"
	"repro/internal/tiled"
	"repro/internal/trace"
	"repro/internal/tslu"
	"repro/internal/tsqr"
)

func main() {
	var (
		m       = flag.Int("m", 2000, "rows")
		n       = flag.Int("n", 200, "columns")
		alg     = flag.String("alg", "caqr", "caqr | tsqr | geqrf | pgeqrf | geqr2 | tiled")
		b       = flag.Int("b", 100, "panel block size (caqr)")
		tr      = flag.Int("tr", 4, "panel parallelism Tr (caqr, tsqr)")
		workers = flag.Int("workers", 4, "worker goroutines")
		tile    = flag.Int("tile", 128, "tile size (tiled)")
		flat    = flag.Bool("flat", false, "flat reduction tree")
		seed    = flag.Int64("seed", 1, "matrix seed")
		crit    = flag.Bool("critical-path", false, "trace the run and report the longest dependency chain (caqr)")
	)
	flag.Parse()
	if *crit && *alg != "caqr" {
		fmt.Fprintln(os.Stderr, "-critical-path requires -alg caqr (the scheduled path)")
		os.Exit(2)
	}

	// Ctrl-C cancels the scheduled factorization between tasks instead of
	// killing the process mid-kernel; a second interrupt kills it outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	orig := matrix.Random(*m, *n, *seed)
	a := orig.Clone()
	tree := tslu.Binary
	if *flat {
		tree = tslu.Flat
	}

	var q, r *matrix.Dense
	start := time.Now()
	switch *alg {
	case "caqr":
		opt := core.Options{BlockSize: *b, PanelThreads: *tr, Tree: tree, Workers: *workers, Lookahead: true, Trace: *crit}
		res, err := core.CAQR(ctx, a, opt, nil)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "interrupted: factorization cancelled")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "factorization:", err)
			os.Exit(1)
		}
		elapsedReport(start, *m, *n)
		if *crit {
			tra := trace.FromSched(res.Events, res.Graph, *workers)
			trace.AnalyzeCriticalPath(tra, res.Graph).Report(os.Stdout)
		}
		q, r = res.ExplicitQ(), res.R()
	case "tsqr":
		f := tsqr.Factor(a, *tr, tree)
		elapsedReport(start, *m, *n)
		q, r = f.ExplicitQ(), f.R()
	case "geqrf":
		tau := make([]float64, min(*m, *n))
		lapack.GEQRF(a, tau, *b)
		elapsedReport(start, *m, *n)
		q, r = lapack.ORGQR(a, tau, min(*m, *n)), lapack.ExtractR(a)
	case "pgeqrf":
		tau := make([]float64, min(*m, *n))
		lapack.PGEQRF(a, tau, *b, *workers)
		elapsedReport(start, *m, *n)
		q, r = lapack.ORGQR(a, tau, min(*m, *n)), lapack.ExtractR(a)
	case "geqr2":
		tau := make([]float64, min(*m, *n))
		lapack.GEQR2(a, tau)
		elapsedReport(start, *m, *n)
		q, r = lapack.ORGQR(a, tau, min(*m, *n)), lapack.ExtractR(a)
	case "tiled":
		res, err := tiled.GEQRF(ctx, a, tiled.Options{TileSize: *tile, Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "factorization:", err)
			os.Exit(1)
		}
		elapsedReport(start, *m, *n)
		q, r = res.ExplicitQ(), res.R()
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *alg)
		os.Exit(2)
	}
	// For rectangular baselines, R from ExtractR is k x n; verification
	// needs the square leading part when k == n.
	if r.Rows != r.Cols {
		r = r.View(0, 0, min(r.Rows, r.Cols), r.Cols)
	}
	rep := stability.MeasureQR(orig, q, r)
	fmt.Printf("residual:       %.3g\n", rep.Residual)
	fmt.Printf("orthogonality:  %.3g\n", rep.Orthogonality)
}

func elapsedReport(start time.Time, m, n int) {
	secs := time.Since(start).Seconds()
	gf := baseline.QRFlops(m, n) / secs / 1e9
	fmt.Printf("factored %dx%d in %.3fs (%.2f GFlop/s canonical)\n", m, n, secs, gf)
}
