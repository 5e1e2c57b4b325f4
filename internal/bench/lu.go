package bench

import (
	"context"
	"runtime"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simsched"
	"repro/internal/tiled"
	"repro/internal/tslu"
)

// Parameters shared by the paper's experiments.
const (
	paperBlock = 100 // CALU/CAQR block size b = min(100, n)
	vendorNB   = 64  // modeled vendor-library panel width
	plasmaTile = 200 // PLASMA 2.0 default tile size
	acmlCores  = 8   // ACML's effective fork-join scaling on the NUMA Opteron
)

func paperB(n int) int { return min(paperBlock, n) }

func workersOrCPU(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.NumCPU()
}

// caluModelGF simulates CALU at the given size/options and returns GFlop/s
// against the canonical LU count.
func caluModelGF(m, n int, opt core.Options, mach *machine.Model) float64 {
	g := core.BuildCALUGraph(m, n, opt)
	return simsched.Run(g, mach).GFlops(baseline.LUFlops(m, n))
}

// luColumnsModel computes one row of the tall-skinny LU comparison in
// modeled mode.
func luRowModel(m, n int, trs []int, mach *machine.Model, vendorCores int) map[string]float64 {
	vals := map[string]float64{}
	canon := baseline.LUFlops(m, n)
	for _, tr := range trs {
		opt := core.Options{BlockSize: paperB(n), PanelThreads: tr, Tree: tslu.Binary, Lookahead: true}
		vals[caluCol(tr)] = caluModelGF(m, n, opt, mach)
	}
	vals["dgetrf"] = simsched.Run(baseline.BuildGETRFGraph(m, n, vendorNB, vendorCores), mach).GFlops(canon)
	vals["dgetf2"] = simsched.Run(baseline.BuildGETF2Graph(m, n), mach).GFlops(canon)
	vals["PLASMA"] = simsched.Run(tiled.BuildGETRFGraph(m, n, tiled.Options{TileSize: plasmaTile, Workers: mach.Cores}), mach).GFlops(canon)
	return vals
}

// luRowMeasured computes one row with real execution at reduced scale.
func luRowMeasured(ctx context.Context, m, n int, trs []int, workers int) map[string]float64 {
	vals := map[string]float64{}
	canon := baseline.LUFlops(m, n)
	orig := matrix.Random(m, n, int64(m+n))
	for _, tr := range trs {
		a := orig.Clone()
		opt := core.Options{BlockSize: paperB(n), PanelThreads: tr, Tree: tslu.Binary, Workers: workers, Lookahead: true}
		secs := timeIt(func() {
			if _, err := core.CALU(ctx, a, opt, nil); err != nil {
				panic(err)
			}
		})
		vals[caluCol(tr)] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		ipiv := make([]int, min(m, n))
		secs := timeIt(func() {
			if err := lapack.PGETRF(a, ipiv, vendorNB, workers); err != nil {
				panic(err)
			}
		})
		vals["dgetrf"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		ipiv := make([]int, min(m, n))
		secs := timeIt(func() {
			if err := lapack.GETF2(a, ipiv); err != nil {
				panic(err)
			}
		})
		vals["dgetf2"] = gflops(canon, secs)
	}
	{
		a := orig.Clone()
		secs := timeIt(func() {
			if _, err := tiled.GETRF(ctx, a, tiled.Options{TileSize: min(plasmaTile, max(n, 8)), Workers: workers}); err != nil {
				panic(err)
			}
		})
		vals["PLASMA"] = gflops(canon, secs)
	}
	return vals
}

func caluCol(tr int) string {
	return "CALU(Tr=" + itoa(tr) + ")"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// tallSkinnyLU builds the Fig. 5/6/7 table.
func tallSkinnyLU(ctx context.Context, cfg Config, id, title, ref string, mModel, mMeasured int, trs []int, mach *machine.Model, vendorCores int, vendorName string) *Table {
	t := &Table{
		ID: id, Title: title, PaperRef: ref, Unit: "GFlop/s",
	}
	for _, tr := range trs {
		t.Columns = append(t.Columns, caluCol(tr))
	}
	t.Columns = append(t.Columns, "dgetrf", "dgetf2", "PLASMA")
	var ns []int
	if cfg.Mode == Modeled {
		ns = []int{10, 25, 50, 100, 150, 200, 500, 1000}
	} else {
		ns = []int{10, 25, 50, 100, 200}
	}
	for _, n := range ns {
		var vals map[string]float64
		if cfg.Mode == Modeled {
			progress(cfg, "%s: modeling m=%d n=%d", id, mModel, n)
			vals = luRowModel(mModel, n, trs, mach, vendorCores)
		} else {
			progress(cfg, "%s: measuring m=%d n=%d", id, mMeasured, n)
			vals = luRowMeasured(ctx, mMeasured, n, trs, workersOrCPU(cfg))
		}
		m := mModel
		if cfg.Mode == Measured {
			m = mMeasured
		}
		t.Rows = append(t.Rows, RowData{Label: rowLabel(m, n), Values: vals})
	}
	t.Notes = "dgetrf/dgetf2 are the " + vendorName + " stand-ins; PLASMA is the tiled incremental-pivoting LU (tile=" + itoa(plasmaTile) + ")."
	if cfg.Mode == Measured {
		t.Notes = joinNotes(t.Notes, "measured at reduced scale on the reproduction host; parallel speedups require GOMAXPROCS > 1")
	}
	return t
}

// squareLU builds Tables I / II.
func squareLU(ctx context.Context, cfg Config, id, title, ref string, sizes []int, trs []int, mach *machine.Model, vendorCores int, vendorName string) *Table {
	t := &Table{ID: id, Title: title, PaperRef: ref, Unit: "GFlop/s"}
	t.Columns = append(t.Columns, vendorName, "PLASMA")
	for _, tr := range trs {
		t.Columns = append(t.Columns, caluCol(tr))
	}
	if cfg.Mode == Measured {
		sizes = []int{256, 512, 768}
	}
	for _, n := range sizes {
		canon := baseline.LUFlops(n, n)
		vals := map[string]float64{}
		if cfg.Mode == Modeled {
			progress(cfg, "%s: modeling n=%d", id, n)
			vals[vendorName] = simsched.Run(baseline.BuildGETRFGraph(n, n, vendorNB, vendorCores), mach).GFlops(canon)
			vals["PLASMA"] = simsched.Run(tiled.BuildGETRFGraph(n, n, tiled.Options{TileSize: plasmaTile, Workers: mach.Cores}), mach).GFlops(canon)
			for _, tr := range trs {
				opt := core.Options{BlockSize: paperBlock, PanelThreads: tr, Tree: tslu.Binary, Lookahead: true}
				vals[caluCol(tr)] = caluModelGF(n, n, opt, mach)
			}
		} else {
			progress(cfg, "%s: measuring n=%d", id, n)
			workers := workersOrCPU(cfg)
			orig := matrix.Random(n, n, int64(n))
			{
				a := orig.Clone()
				ipiv := make([]int, n)
				secs := timeIt(func() {
					if err := lapack.PGETRF(a, ipiv, vendorNB, workers); err != nil {
						panic(err)
					}
				})
				vals[vendorName] = gflops(canon, secs)
			}
			{
				a := orig.Clone()
				secs := timeIt(func() {
					if _, err := tiled.GETRF(ctx, a, tiled.Options{TileSize: 64, Workers: workers}); err != nil {
						panic(err)
					}
				})
				vals["PLASMA"] = gflops(canon, secs)
			}
			for _, tr := range trs {
				a := orig.Clone()
				opt := core.Options{BlockSize: min(paperBlock, n/4), PanelThreads: tr, Tree: tslu.Binary, Workers: workers, Lookahead: true}
				secs := timeIt(func() {
					if _, err := core.CALU(ctx, a, opt, nil); err != nil {
						panic(err)
					}
				})
				vals[caluCol(tr)] = gflops(canon, secs)
			}
		}
		t.Rows = append(t.Rows, RowData{Label: "m=n=" + itoa(n), Values: vals})
	}
	return t
}

func init() {
	register(Experiment{
		ID:       "fig5",
		Title:    "LU of tall-skinny matrices, m=10^5, 8-core Intel",
		PaperRef: "Figure 5",
		Run: func(ctx context.Context, cfg Config) *Table {
			return tallSkinnyLU(ctx, cfg, "fig5",
				"LU of tall-skinny matrices, m=10^5, 8-core Intel",
				"Figure 5", 100000, 20000, []int{8, 4}, machine.Intel8(), machine.Intel8().Cores, "MKL")
		},
	})
	register(Experiment{
		ID:       "fig6",
		Title:    "LU of tall-skinny matrices, m=10^6, 8-core Intel",
		PaperRef: "Figure 6",
		Run: func(ctx context.Context, cfg Config) *Table {
			return tallSkinnyLU(ctx, cfg, "fig6",
				"LU of tall-skinny matrices, m=10^6, 8-core Intel",
				"Figure 6", 1000000, 50000, []int{8, 4}, machine.Intel8(), machine.Intel8().Cores, "MKL")
		},
	})
	register(Experiment{
		ID:       "fig7",
		Title:    "LU of tall-skinny matrices, m=10^5, 16-core AMD",
		PaperRef: "Figure 7",
		Run: func(ctx context.Context, cfg Config) *Table {
			return tallSkinnyLU(ctx, cfg, "fig7",
				"LU of tall-skinny matrices, m=10^5, 16-core AMD",
				"Figure 7", 100000, 20000, []int{16, 8}, machine.AMD16(), acmlCores, "ACML")
		},
	})
	register(Experiment{
		ID:       "table1",
		Title:    "LU of square matrices, 8-core Intel",
		PaperRef: "Table I",
		Run: func(ctx context.Context, cfg Config) *Table {
			return squareLU(ctx, cfg, "table1",
				"LU of square matrices, 8-core Intel",
				"Table I", []int{1000, 2000, 3000, 4000, 5000, 10000},
				[]int{1, 2, 4, 8}, machine.Intel8(), machine.Intel8().Cores, "MKL")
		},
	})
	register(Experiment{
		ID:       "table2",
		Title:    "LU of square matrices, 16-core AMD",
		PaperRef: "Table II",
		Run: func(ctx context.Context, cfg Config) *Table {
			return squareLU(ctx, cfg, "table2",
				"LU of square matrices, 16-core AMD",
				"Table II", []int{1000, 2000, 3000, 4000, 5000},
				[]int{1, 2, 4, 8, 16}, machine.AMD16(), acmlCores, "ACML")
		},
	})
}
