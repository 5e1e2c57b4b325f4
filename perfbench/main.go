// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against factor.Engine in process, checks every result, and
// prints each metric with its unit, then one JSON result line:
//
//	perfbench --workload tall-skinny --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run times the benchmark's own calls into each layer
// (a cmd/facsvc child over HTTP, factor, core, sched, tslu/tsqr, blas,
// lapack) and reports the per-layer metrics. run.sh builds the binaries
// and runs it from the root of a checkout; BENCHMARK.json lists the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/blas"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's settings and tallies.
type runner struct {
	w       workload
	seed    int64
	dur     time.Duration
	trace   bool
	facsvc  string
	workers int

	attempted, failed int
	wrong             int // results that failed a correctness check
	metrics           map[string]metric
}

func (r *runner) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one failed operation and why.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Printf("failure: "+format+"\n", args...)
	}
}

// checked records the outcome of one result's correctness check.
func (r *runner) checked(what string, err error) {
	if err != nil {
		r.wrong++
		r.fail("%s: %v", what, err)
	}
}

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same matrices and request schedule")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	facsvc := flag.String("facsvc", ".bench_build/facsvc", "built cmd/facsvc binary for the traced run's service leg")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	r := &runner{
		w:       w,
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		facsvc:  *facsvc,
		workers: runtime.NumCPU(),
		metrics: map[string]metric{},
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	err := r.run(ctx)
	if err == nil {
		err = r.validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	r.print()
}

func (r *runner) run(ctx context.Context) error {
	if r.trace {
		return r.traced(ctx)
	}
	return r.batch(ctx)
}

// validate rejects a run that attempted nothing or measured a non-finite
// metric.
func (r *runner) validate() error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	return nil
}

// print writes the host fingerprint, every metric with its unit, and the
// JSON result line.
func (r *runner) print() {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     blas.KernelName(),
		"go":         runtime.Version(),
	}
	ref := lapackReference(r.seed)
	for k, v := range ref {
		host[k] = v
	}
	hb, _ := json.Marshal(host) // a map of strings and numbers always encodes
	fmt.Printf("host %s\n", hb)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("fail_frac %.6g (%d of %d)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	out, _ := json.Marshal(result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}) // plain structs and finite floats always encode
	fmt.Println(string(out))
}
