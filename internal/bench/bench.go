// Package bench regenerates every table and figure of the paper's
// evaluation section (Figs. 3-8, Tables I-III), plus the stability study
// and the ablations called out in DESIGN.md.
//
// Each experiment runs in one of two modes:
//
//   - Modeled (default): the algorithms' task graphs are built at the
//     paper's original sizes and executed in virtual time on the calibrated
//     machine models (package simsched + machine). Deterministic, fast, and
//     structurally faithful: the graphs are produced by the same builders
//     the real code uses.
//   - Measured: the real numeric factorizations run on scaled-down sizes
//     and are wall-clock timed. Useful to validate the implementations
//     end-to-end on the reproduction host; absolute numbers depend on the
//     host and on GOMAXPROCS.
//
// The output tables print GFlop/s computed against canonical flop counts,
// exactly as the paper reports.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Mode selects how an experiment obtains its numbers.
type Mode int

// Modes.
const (
	Modeled Mode = iota
	Measured
)

// String names the mode.
func (m Mode) String() string {
	if m == Measured {
		return "measured"
	}
	return "modeled"
}

// Config parameterizes an experiment run.
type Config struct {
	// Mode selects modeled (paper-scale, virtual time) or measured
	// (scaled-down, wall clock).
	Mode Mode
	// Workers is the goroutine count for measured runs; 0 uses NumCPU.
	Workers int
	// Verbose writers get progress lines; nil silences them.
	Verbose io.Writer
}

// Table is one reproduced table or figure (figures are reported as the
// table of series values that would be plotted).
type Table struct {
	// ID is the experiment identifier (fig5, table1, ...).
	ID string
	// Title describes the experiment.
	Title string
	// PaperRef cites the paper artifact this reproduces.
	PaperRef string
	// Columns are the value column names, in display order.
	Columns []string
	// Rows are the data rows, in display order.
	Rows []RowData
	// Unit labels the values (GFlop/s, seconds, growth, ...).
	Unit string
	// Notes holds free-form output such as Gantt charts or commentary.
	Notes string
}

// RowData is one table row.
type RowData struct {
	Label  string
	Values map[string]float64
}

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "(reproduces %s; values in %s)\n", t.PaperRef, t.Unit)
	// Column widths.
	labelW := 5
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
		if widths[i] < 8 {
			widths[i] = 8
		}
	}
	fmt.Fprintf(w, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(w, " %*s", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-*s", labelW+2, r.Label)
		for i, c := range t.Columns {
			v, ok := r.Values[c]
			if !ok {
				fmt.Fprintf(w, " %*s", widths[i], "-")
				continue
			}
			fmt.Fprintf(w, " %*.2f", widths[i], v)
		}
		fmt.Fprintln(w)
	}
	if t.Notes != "" {
		fmt.Fprintln(w, t.Notes)
	}
	fmt.Fprintln(w)
}

// Experiment is a registered reproduction target.
type Experiment struct {
	// ID is the key used on the command line (fig5, table1, ablation-tree).
	ID string
	// Title is a human-readable summary.
	Title string
	// PaperRef cites the reproduced artifact.
	PaperRef string
	// Run produces the table.
	Run func(ctx context.Context, cfg Config) *Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// progress emits a progress line when cfg.Verbose is set.
func progress(cfg Config, format string, args ...any) {
	if cfg.Verbose != nil {
		fmt.Fprintf(cfg.Verbose, format+"\n", args...)
	}
}

// timeIt runs f and returns elapsed seconds.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// gflops converts canonical flops and seconds to GFlop/s.
func gflops(canonical, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return canonical / seconds / 1e9
}

// rowLabel formats an m x n size label.
func rowLabel(m, n int) string {
	return fmt.Sprintf("%dx%d", m, n)
}

// joinNotes concatenates note fragments.
func joinNotes(parts ...string) string {
	return strings.Join(parts, "\n")
}

// WriteCSV emits the table as CSV (label plus one column per series).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "label")
	for _, c := range t.Columns {
		fmt.Fprintf(w, ",%s", strings.ReplaceAll(c, ",", ";"))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%s", strings.ReplaceAll(r.Label, ",", ";"))
		for _, c := range t.Columns {
			if v, ok := r.Values[c]; ok {
				fmt.Fprintf(w, ",%g", v)
			} else {
				fmt.Fprintf(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}
