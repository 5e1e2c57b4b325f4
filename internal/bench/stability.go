package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/stability"
	"repro/internal/tiled"
)

// stabilityExperiment backs the paper's Section II claim (via [12]) that
// ca-pivoting is as stable as partial pivoting in practice: growth factors
// of GEPP, CALU and tiled (incremental-pivoting) LU across matrix classes.
// It always executes real factorizations; Mode only affects sizes.
func stabilityExperiment(ctx context.Context, cfg Config) *Table {
	n := 256
	if cfg.Mode == Measured {
		n = 128
	}
	t := &Table{
		ID:       "stability",
		Title:    "LU growth factors across matrix classes",
		PaperRef: "Section II stability discussion",
		Unit:     "growth (gepp/calu/tiled), residual x 1e16 (calu)",
		Columns:  []string{"GEPP", "CALU", "Tiled", "CALUresid*1e16"},
	}
	classes := []struct {
		name string
		gen  func() *matrix.Dense
	}{
		{"random-uniform", func() *matrix.Dense { return matrix.Random(n, n, 1) }},
		{"random-normal", func() *matrix.Dense { return matrix.RandomNormal(n, n, 2) }},
		{"graded", func() *matrix.Dense { return matrix.Graded(n, n, 1.1, 3) }},
		{"near-singular", func() *matrix.Dense { return matrix.NearSingular(n, n, 1e-6, 4) }},
		{"orthogonal-ish", func() *matrix.Dense { return matrix.Orthogonalish(n, n, 5) }},
		{"diag-dominant", func() *matrix.Dense { return matrix.DiagonallyDominant(n, 6) }},
	}
	opt := core.Options{BlockSize: 32, PanelThreads: 4, Workers: workersOrCPU(cfg), Lookahead: true}
	for _, c := range classes {
		progress(cfg, "stability: %s n=%d", c.name, n)
		a := c.gen()
		ref := stability.MeasureGEPP(a)
		calu, err := stability.MeasureCALU(ctx, a, opt)
		if err != nil {
			panic(err)
		}
		lu, err := tiled.GETRF(ctx, a.Clone(), tiled.Options{TileSize: 32, Workers: opt.Workers})
		if err != nil {
			panic(err)
		}
		maxU := 0.0
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				maxU = math.Max(maxU, math.Abs(lu.A.At(i, j)))
			}
		}
		t.Rows = append(t.Rows, RowData{Label: c.name, Values: map[string]float64{
			"GEPP":           ref.Growth,
			"CALU":           calu.Growth,
			"Tiled":          maxU / a.MaxAbs(),
			"CALUresid*1e16": calu.Residual * 1e16,
		}})
	}
	t.Notes = "CALU growth tracking GEPP across classes reproduces the ca-pivoting stability claim; tiled LU uses incremental pivoting (no global P), whose growth is known to be weaker in adversarial cases."
	return t
}

func init() {
	register(Experiment{
		ID:       "stability",
		Title:    "ca-pivoting stability vs GEPP and incremental pivoting",
		PaperRef: "Section II",
		Run:      stabilityExperiment,
	})
}

// stabilitySweep reproduces the experimental methodology behind the
// paper's stability citation [12] (Grigori, Demmel, Xiang): many random
// samples, comparing the distribution of growth factors between partial
// pivoting and tournament pivoting across Tr. Reported are the mean and
// max growth over the sample set.
func stabilitySweep(ctx context.Context, cfg Config) *Table {
	n, samples := 96, 12
	if cfg.Mode == Measured {
		n, samples = 64, 6
	}
	t := &Table{
		ID:       "stability-sweep",
		Title:    "Growth-factor distribution: GEPP vs CALU across Tr",
		PaperRef: "Section II (methodology of [12])",
		Unit:     "growth factor over random N(0,1) samples",
		Columns:  []string{"GEPP-mean", "GEPP-max", "CALU-mean", "CALU-max", "ratio-mean"},
	}
	for _, tr := range []int{2, 4, 8, 16} {
		progress(cfg, "stability-sweep: Tr=%d", tr)
		var geppSum, geppMax, caluSum, caluMax float64
		for s := 0; s < samples; s++ {
			a := matrix.RandomNormal(n, n, int64(tr*1000+s))
			ref := stability.MeasureGEPP(a)
			got, err := stability.MeasureCALU(ctx, a, core.Options{
				BlockSize: 16, PanelThreads: tr, Workers: workersOrCPU(cfg), Lookahead: true,
			})
			if err != nil {
				panic(err)
			}
			geppSum += ref.Growth
			caluSum += got.Growth
			geppMax = math.Max(geppMax, ref.Growth)
			caluMax = math.Max(caluMax, got.Growth)
		}
		t.Rows = append(t.Rows, RowData{Label: "Tr=" + itoa(tr), Values: map[string]float64{
			"GEPP-mean":  geppSum / float64(samples),
			"GEPP-max":   geppMax,
			"CALU-mean":  caluSum / float64(samples),
			"CALU-max":   caluMax,
			"ratio-mean": caluSum / geppSum,
		}})
	}
	t.Notes = "Tournament pivoting's growth stays within a small constant of partial pivoting's across the whole Tr range — the paper's 'as stable in practice' claim, sampled."
	return t
}

func init() {
	register(Experiment{
		ID:       "stability-sweep",
		Title:    "growth-factor distributions, GEPP vs CALU",
		PaperRef: "Section II",
		Run:      stabilitySweep,
	})
}
