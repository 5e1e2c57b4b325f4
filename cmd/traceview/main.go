// Command traceview renders execution traces of the multithreaded CALU and
// CAQR factorizations as text Gantt charts, reproducing the paper's Figures
// 3 and 4 (panel-induced idle time with Tr=1 vs a busy machine with Tr=8).
//
// Usage:
//
//	traceview -exp fig3             # modeled trace, paper-scale, Tr=1
//	traceview -exp fig4             # modeled trace, paper-scale, Tr=8
//	traceview -alg caqr -m 20000 -n 500 -b 100 -tr 4 -cores 8
//	traceview -measured -m 2000 -n 400 -tr 4   # real run, wall-clock trace
//	traceview -csv trace.csv ...    # also dump raw spans
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/simsched"
	"repro/internal/trace"
	"repro/internal/tslu"
)

// reportRunError prints a factorization failure and exits: 130 for an
// operator interrupt (SIGINT mapped to context cancellation), 1 otherwise.
func reportRunError(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted: factorization cancelled")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "factorization:", err)
	os.Exit(1)
}

func main() {
	var (
		exp      = flag.String("exp", "", "preset: fig3 (Tr=1) or fig4 (Tr=8)")
		alg      = flag.String("alg", "calu", "algorithm: calu or caqr")
		m        = flag.Int("m", 100000, "rows")
		n        = flag.Int("n", 1000, "columns")
		b        = flag.Int("b", 100, "panel block size")
		tr       = flag.Int("tr", 8, "panel parallelism Tr")
		cores    = flag.Int("cores", 8, "virtual cores (modeled) / workers (measured)")
		flat     = flag.Bool("flat", false, "use the flat (height-1) reduction tree")
		measured = flag.Bool("measured", false, "run the real factorization instead of the model")
		width    = flag.Int("width", 120, "gantt chart width in characters")
		csvPath  = flag.String("csv", "", "also write raw spans to this CSV file")
		perfetto = flag.String("perfetto", "", "write a Chrome/Perfetto trace-event JSON file (load in ui.perfetto.dev)")
		critPath = flag.Bool("critical-path", false, "analyze the longest dependency chain and idle attribution")
	)
	flag.Parse()

	switch *exp {
	case "fig3":
		*alg, *m, *n, *b, *tr, *cores = "calu", 100000, 1000, 100, 1, 8
	case "fig4":
		*alg, *m, *n, *b, *tr, *cores = "calu", 100000, 1000, 100, 8, 8
	case "":
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q (want fig3 or fig4)\n", *exp)
		os.Exit(2)
	}

	tree := tslu.Binary
	if *flat {
		tree = tslu.Flat
	}
	opt := core.Options{BlockSize: *b, PanelThreads: *tr, Tree: tree, Workers: *cores, Lookahead: true, Trace: true}

	var tra *trace.Trace
	var graph *sched.Graph
	if *measured {
		// Ctrl-C cancels the measured run between tasks; the partial trace
		// is discarded (drained tasks leave no events to render anyway).
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSig()
		a := matrix.Random(*m, *n, 42)
		var events []sched.Event
		if *alg == "caqr" {
			res, err := core.CAQR(ctx, a, opt, nil)
			if err != nil {
				reportRunError(err)
			}
			events, graph = res.Events, res.Graph
		} else {
			res, err := core.CALU(ctx, a, opt, nil)
			if err != nil {
				reportRunError(err)
			}
			events, graph = res.Events, res.Graph
		}
		tra = trace.FromSched(events, graph, *cores)
		fmt.Printf("measured %s trace, %dx%d, b=%d, Tr=%d, %d workers\n", *alg, *m, *n, *b, *tr, *cores)
	} else {
		mach := machine.Intel8().WithCores(*cores)
		var g *sched.Graph
		if *alg == "caqr" {
			g = core.BuildCAQRGraph(*m, *n, opt)
		} else {
			g = core.BuildCALUGraph(*m, *n, opt)
		}
		res := simsched.Run(g, mach)
		tra = trace.FromSim(res.Events, g, mach.Cores)
		graph = g
		fmt.Printf("modeled %s trace on %s, %dx%d, b=%d, Tr=%d\n", *alg, mach.Name, *m, *n, *b, *tr)
	}

	tra.Gantt(os.Stdout, *width)
	st := tra.Stats()
	fmt.Printf("\nbusy fractions: P=%.3f L=%.3f U=%.3f S=%.3f idle=%.3f\n",
		st.BusyByKind[sched.KindP], st.BusyByKind[sched.KindL],
		st.BusyByKind[sched.KindU], st.BusyByKind[sched.KindS], st.Idle)

	// Both the report and the Perfetto export want chain membership, so the
	// analysis runs once for either flag.
	var cp *trace.CriticalPath
	if *critPath || *perfetto != "" {
		cp = trace.AnalyzeCriticalPath(tra, graph)
	}
	if *critPath {
		fmt.Println()
		cp.Report(os.Stdout)
	}
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfetto:", err)
			os.Exit(1)
		}
		err = tra.WriteChromeTrace(f, cp.OnPathSet())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfetto:", err)
			os.Exit(1)
		}
		fmt.Println("perfetto trace written to", *perfetto, "(open in ui.perfetto.dev)")
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "csv:", err)
			os.Exit(1)
		}
		defer f.Close()
		tra.WriteCSV(f)
		fmt.Println("spans written to", *csvPath)
	}
}
