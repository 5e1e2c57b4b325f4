package bench

import (
	"context"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simsched"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

// The paper's published numbers (GFlop/s), transcribed from Tables I-III.
// These are the quantitative ground truth the calibrated model is judged
// against; the parity experiment prints model-vs-paper side by side.

// paperTable1 is Table I: LU of square matrices on the 8-core Intel
// machine. Columns: MKL dgetrf, PLASMA dgetrf, CALU Tr=1, 2, 4, 8.
var paperTable1 = map[int][6]float64{
	1000:  {38.4, 17.8, 15.7, 15.5, 15.1, 13.6},
	2000:  {45.3, 32.6, 26.5, 31.2, 32.9, 30.3},
	3000:  {48.8, 38.8, 33.7, 43.2, 43.6, 40.7},
	4000:  {53.1, 42.5, 38.9, 50.5, 49.9, 47.5},
	5000:  {55.6, 42.3, 42.1, 54.2, 54.1, 51.7},
	10000: {61.39, 48.3, 52.3, 63.5, 62.7, 61.4},
}

// paperTable2 is Table II: LU of square matrices on the 16-core AMD
// machine. Columns: ACML dgetrf, PLASMA dgetrf, CALU Tr=1, 2, 4, 8, 16.
var paperTable2 = map[int][7]float64{
	1000: {16.2, 10.0, 10.8, 10.4, 10.2, 11.5, 11.8},
	2000: {29.6, 25.9, 21.3, 22.6, 28.3, 26.8, 22.1},
	3000: {31.0, 32.2, 27.8, 30.5, 34.4, 34.3, 28.9},
	4000: {26.3, 35.2, 34.5, 36.4, 37.9, 37.8, 34.1},
	5000: {26.8, 38.0, 38.6, 39.5, 39.7, 39.2, 38.9},
}

// paperTable3 is Table III: QR of square matrices on the 8-core Intel
// machine. Columns: MKL dgeqrf, PLASMA dgeqrf, CAQR Tr=1, 2, 4, 8.
var paperTable3 = map[int][6]float64{
	1000: {41.0, 27.3, 4.3, 11.8, 22.6, 17.6},
	2000: {52.1, 41.3, 26.2, 33.3, 37.5, 37.5},
	3000: {50.3, 46.5, 22.1, 40.2, 43.1, 40.9},
	4000: {49.4, 48.4, 38.1, 45.0, 46.0, 44.8},
	5000: {54.5, 49.5, 40.9, 46.7, 47.7, 46.7},
}

// parityExperiment prints the modeled GFlop/s against the paper's published
// numbers for Tables I-III and reports per-table mean relative deviation.
func parityExperiment(_ context.Context, cfg Config) *Table {
	t := &Table{
		ID:       "parity",
		Title:    "Model vs paper: published GFlop/s side by side",
		PaperRef: "Tables I-III",
		Unit:     "GFlop/s (paper -> model), deviation as fraction",
		Columns:  []string{"paper", "model", "rel-dev"},
	}
	type point struct {
		label string
		paper float64
		model func() float64
	}
	intel := machine.Intel8()
	amd := machine.AMD16()
	var points []point
	addLU := func(label string, n int, paper float64, tr int, mach *machine.Model, vendor bool, vendorCores int) {
		points = append(points, point{label, paper, func() float64 {
			canon := baseline.LUFlops(n, n)
			if vendor {
				return simsched.Run(baseline.BuildGETRFGraph(n, n, vendorNB, vendorCores), mach).GFlops(canon)
			}
			opt := core.Options{BlockSize: paperBlock, PanelThreads: tr, Tree: tslu.Binary, Lookahead: true}
			return caluModelGF(n, n, opt, mach)
		}})
	}
	// A representative subset of each table (full sweeps are table1-3).
	for _, n := range []int{1000, 5000, 10000} {
		addLU("T1 MKL n="+itoa(n), n, paperTable1[n][0], 0, intel, true, intel.Cores)
		addLU("T1 CALU2 n="+itoa(n), n, paperTable1[n][3], 2, intel, false, 0)
	}
	for _, n := range []int{1000, 3000, 5000} {
		addLU("T2 ACML n="+itoa(n), n, paperTable2[n][0], 0, amd, true, acmlCores)
		addLU("T2 CALU4 n="+itoa(n), n, paperTable2[n][4], 4, amd, false, 0)
	}
	for _, n := range []int{1000, 3000, 5000} {
		n := n
		points = append(points, point{"T3 PLASMA n=" + itoa(n), paperTable3[n][1], func() float64 {
			canon := baseline.QRFlops(n, n)
			return simsched.Run(tiled.BuildGEQRFGraph(n, n, tiled.Options{TileSize: plasmaTile, Workers: intel.Cores}), intel).GFlops(canon)
		}})
		points = append(points, point{"T3 CAQR4 n=" + itoa(n), paperTable3[n][4], func() float64 {
			opt := core.Options{BlockSize: paperBlock, PanelThreads: 4, Tree: tslu.Flat, Lookahead: true}
			return caqrModelGF(n, n, opt, intel)
		}})
	}
	totalDev := 0.0
	for _, pt := range points {
		progress(cfg, "parity: %s", pt.label)
		m := pt.model()
		dev := math.Abs(m-pt.paper) / pt.paper
		totalDev += dev
		t.Rows = append(t.Rows, RowData{Label: pt.label, Values: map[string]float64{
			"paper": pt.paper, "model": m, "rel-dev": dev,
		}})
	}
	t.Rows = append(t.Rows, RowData{Label: "MEAN", Values: map[string]float64{
		"rel-dev": totalDev / float64(len(points)),
	}})
	t.Notes = "Published values transcribed from the paper's Tables I-III. The model is calibrated on four anchors only (see internal/machine); everything else is prediction."
	return t
}

func init() {
	register(Experiment{
		ID:       "parity",
		Title:    "model vs published numbers, side by side",
		PaperRef: "Tables I-III",
		Run:      parityExperiment,
	})
}
