package bench

import (
	"context"
	"repro/internal/baseline"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/tslu"
)

// commExperiment tabulates the synchronization and critical-path structure
// behind the paper's Sections I-II: per-panel synchronization counts for
// classic vs ca-pivoting, and graph-derived span/parallelism for the full
// factorizations.
func commExperiment(_ context.Context, cfg Config) *Table {
	t := &Table{
		ID:       "comm",
		Title:    "Synchronization and critical-path structure, CALU vs classic",
		PaperRef: "Sections I-II",
		Unit:     "counts (syncs, tasks) and flops (span)",
		Columns: []string{
			"panel-syncs-classic", "panel-syncs-binary", "panel-syncs-flat", "panel-syncs-hybrid",
			"span-Mflops-CALU", "span-Mflops-vendor", "parallelism-CALU", "parallelism-vendor",
		},
	}
	for _, s := range ablationShapes(cfg) {
		progress(cfg, "comm: %s", s.label)
		b := paperB(s.n)
		caluM := comm.Analyze(core.BuildCALUGraph(s.m, s.n, core.Options{
			BlockSize: b, PanelThreads: 8, Lookahead: true,
		}))
		vendorM := comm.Analyze(baseline.BuildGETRFGraph(s.m, s.n, vendorNB, 8))
		t.Rows = append(t.Rows, RowData{Label: s.label, Values: map[string]float64{
			"panel-syncs-classic": float64(comm.PanelSyncs(b, 8, tslu.Binary, true)),
			"panel-syncs-binary":  float64(comm.PanelSyncs(b, 8, tslu.Binary, false)),
			"panel-syncs-flat":    float64(comm.PanelSyncs(b, 8, tslu.Flat, false)),
			"panel-syncs-hybrid":  float64(comm.PanelSyncs(b, 8, tslu.Hybrid, false)),
			"span-Mflops-CALU":    caluM.SpanFlops / 1e6,
			"span-Mflops-vendor":  vendorM.SpanFlops / 1e6,
			"parallelism-CALU":    caluM.MaxParallelism,
			"parallelism-vendor":  vendorM.MaxParallelism,
		}})
	}
	t.Notes = "Panel syncs: classic GEPP synchronizes once per column (b); ca-pivoting once per tree level (log2 Tr binary, 1 flat). Span and parallelism come from the actual task graphs (Brent bound)."
	return t
}

func init() {
	register(Experiment{
		ID:       "comm",
		Title:    "synchronization structure and critical paths",
		PaperRef: "Sections I-II",
		Run:      commExperiment,
	})
}
