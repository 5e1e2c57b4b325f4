package bench

import (
	"context"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/ooc"
	"repro/internal/simsched"
	"repro/internal/tslu"
)

// oocExperiment quantifies the sequential (memory-hierarchy) side of
// Section II: words moved between fast and slow memory for one panel, by
// algorithm, simulated on an LRU cache.
func oocExperiment(_ context.Context, cfg Config) *Table {
	t := &Table{
		ID:       "ooc",
		Title:    "Sequential communication: words moved per m x 100 panel (LRU cache = 10% of panel)",
		PaperRef: "Section II",
		Unit:     "Mwords moved",
		Columns:  []string{"TSLU-flat", "GEPP-columns", "GEPP-blocked(nb=25)", "GEPP/TSLU"},
	}
	b, blocks := 100, 8
	ms := []int{100000, 400000, 1000000}
	if cfg.Mode == Measured {
		ms = []int{100000}
	}
	for _, m := range ms {
		progress(cfg, "ooc: m=%d", m)
		rows := m / blocks
		cache := int64(m) * int64(b) / 10

		ts := ooc.NewCache(cache)
		ooc.PanelTraceTSLU(ts, m, b, rows)
		pp := ooc.NewCache(cache)
		ooc.PanelTraceGEPP(pp, m, b, rows)
		bl := ooc.NewCache(cache)
		ooc.PanelTraceBlockedGEPP(bl, m, b, rows, 25)

		t.Rows = append(t.Rows, RowData{Label: "m=" + itoa(m), Values: map[string]float64{
			"TSLU-flat":           float64(ts.Moved) / 1e6,
			"GEPP-columns":        float64(pp.Moved) / 1e6,
			"GEPP-blocked(nb=25)": float64(bl.Moved) / 1e6,
			"GEPP/TSLU":           float64(pp.Moved) / float64(ts.Moved),
		}})
	}
	t.Notes = "TSLU with the flat tree streams the panel once (compulsory traffic); column-wise GEPP rescans it per column (~b passes); blocked GEPP lands in between (~b/nb passes). This is the paper's sequential-optimality claim."
	return t
}

// scalingExperiment sweeps the virtual core count for a fixed workload —
// the strong-scaling view the paper's per-machine tables imply.
func scalingExperiment(_ context.Context, cfg Config) *Table {
	t := &Table{
		ID:       "scaling",
		Title:    "Strong scaling of CALU vs vendor model (Intel profile, cores swept)",
		PaperRef: "Sections III-IV",
		Unit:     "GFlop/s",
		Columns:  []string{"CALU-tall", "vendor-tall", "CALU-square", "vendor-square"},
	}
	mTall, nTall := 1000000, 100
	nSq := 5000
	if cfg.Mode == Measured {
		mTall, nSq = 100000, 2000
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		progress(cfg, "scaling: cores=%d", p)
		mach := machine.Intel8().WithCores(p)
		canonTall := baseline.LUFlops(mTall, nTall)
		canonSq := baseline.LUFlops(nSq, nSq)
		caluTall := core.BuildCALUGraph(mTall, nTall, core.Options{
			BlockSize: paperB(nTall), PanelThreads: p, Tree: tslu.Binary, Lookahead: true,
		})
		caluSq := core.BuildCALUGraph(nSq, nSq, core.Options{
			BlockSize: paperBlock, PanelThreads: min(p, 4), Tree: tslu.Binary, Lookahead: true,
		})
		t.Rows = append(t.Rows, RowData{Label: "cores=" + itoa(p), Values: map[string]float64{
			"CALU-tall":     simsched.Run(caluTall, mach).GFlops(canonTall),
			"vendor-tall":   simsched.Run(baseline.BuildGETRFGraph(mTall, nTall, vendorNB, p), mach).GFlops(canonTall),
			"CALU-square":   simsched.Run(caluSq, mach).GFlops(canonSq),
			"vendor-square": simsched.Run(baseline.BuildGETRFGraph(nSq, nSq, vendorNB, p), mach).GFlops(canonSq),
		}})
	}
	t.Notes = "On tall-skinny matrices CALU scales with cores (the panel parallelizes, Tr = cores) while the vendor model plateaus at its serial panel; on squares both scale until the update saturates."
	return t
}

func init() {
	register(Experiment{
		ID:       "ooc",
		Title:    "sequential memory-hierarchy traffic (Section II)",
		PaperRef: "Section II",
		Run:      oocExperiment,
	})
	register(Experiment{
		ID:       "scaling",
		Title:    "strong scaling across virtual cores",
		PaperRef: "Sections III-IV",
		Run:      scalingExperiment,
	})
}
