package repro

// Benchmarks regenerating every table and figure of the paper, plus
// measured micro-benchmarks of the real kernels.
//
// The BenchmarkFig*/BenchmarkTable* benches run the modeled experiments
// (paper-scale task graphs on the calibrated virtual machines) and report
// the headline GFlop/s as custom metrics, so `go test -bench=.` reproduces
// the entire evaluation section in one run. The BenchmarkMeasured* benches
// run the real factorizations at reduced sizes.

import (
	"context"
	"testing"

	"repro/factor"
	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/lapack"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/simsched"
	"repro/internal/tiled"
	"repro/internal/tslu"
	"repro/internal/tsqr"
)

// benchExperiment runs a registered experiment once per iteration and
// reports selected row/column values as custom metrics.
func benchExperiment(b *testing.B, id string, metrics map[string][2]string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = e.Run(context.Background(), bench.Config{Mode: bench.Modeled})
	}
	for name, rc := range metrics {
		for _, r := range tb.Rows {
			if r.Label == rc[0] {
				b.ReportMetric(r.Values[rc[1]], name)
			}
		}
	}
}

// --- One benchmark per paper table/figure. ---

func BenchmarkFig3Trace(b *testing.B) {
	benchExperiment(b, "fig3", map[string][2]string{
		"idle-frac": {"share", "idle"},
	})
}

func BenchmarkFig4Trace(b *testing.B) {
	benchExperiment(b, "fig4", map[string][2]string{
		"idle-frac": {"share", "idle"},
	})
}

func BenchmarkFig5TallSkinnyLU(b *testing.B) {
	benchExperiment(b, "fig5", map[string][2]string{
		"calu8-n100-GF":  {"100000x100", "CALU(Tr=8)"},
		"dgetrf-n100-GF": {"100000x100", "dgetrf"},
		"plasma-n100-GF": {"100000x100", "PLASMA"},
	})
}

func BenchmarkFig6TallSkinnyLU(b *testing.B) {
	benchExperiment(b, "fig6", map[string][2]string{
		"calu8-n500-GF":  {"1000000x500", "CALU(Tr=8)"},
		"dgetrf-n500-GF": {"1000000x500", "dgetrf"},
		"dgetf2-n100-GF": {"1000000x100", "dgetf2"},
	})
}

func BenchmarkFig7TallSkinnyLUAMD(b *testing.B) {
	benchExperiment(b, "fig7", map[string][2]string{
		"calu16-n100-GF": {"100000x100", "CALU(Tr=16)"},
		"acml-n100-GF":   {"100000x100", "dgetrf"},
	})
}

func BenchmarkTable1SquareLU(b *testing.B) {
	benchExperiment(b, "table1", map[string][2]string{
		"mkl-10000-GF":   {"m=n=10000", "MKL"},
		"calu2-10000-GF": {"m=n=10000", "CALU(Tr=2)"},
		"mkl-1000-GF":    {"m=n=1000", "MKL"},
		"calu8-1000-GF":  {"m=n=1000", "CALU(Tr=8)"},
	})
}

func BenchmarkTable2SquareLUAMD(b *testing.B) {
	benchExperiment(b, "table2", map[string][2]string{
		"acml-5000-GF":  {"m=n=5000", "ACML"},
		"calu4-5000-GF": {"m=n=5000", "CALU(Tr=4)"},
	})
}

func BenchmarkFig8TallSkinnyQR(b *testing.B) {
	benchExperiment(b, "fig8", map[string][2]string{
		"tsqr-n200-GF":   {"100000x200", "TSQR"},
		"dgeqrf-n200-GF": {"100000x200", "dgeqrf"},
		"plasma-n200-GF": {"100000x200", "PLASMA"},
	})
}

func BenchmarkTable3SquareQR(b *testing.B) {
	benchExperiment(b, "table3", map[string][2]string{
		"mkl-5000-GF":   {"m=n=5000", "MKL"},
		"caqr4-5000-GF": {"m=n=5000", "CAQR(Tr=4)"},
	})
}

func BenchmarkStabilityStudy(b *testing.B) {
	benchExperiment(b, "stability", map[string][2]string{
		"calu-random-growth": {"random-uniform", "CALU"},
		"gepp-random-growth": {"random-uniform", "GEPP"},
	})
}

// --- Ablation benches for the design choices in DESIGN.md. ---

func BenchmarkAblationTree(b *testing.B) {
	benchExperiment(b, "ablation-tree", map[string][2]string{
		"calu-binary-GF": {"tall 1e6x100", "CALU-binary"},
		"calu-flat-GF":   {"tall 1e6x100", "CALU-flat"},
	})
}

func BenchmarkAblationLookahead(b *testing.B) {
	benchExperiment(b, "ablation-lookahead", map[string][2]string{
		"lookahead-GF":    {"tall 1e5x1000", "lookahead"},
		"no-lookahead-GF": {"tall 1e5x1000", "no-lookahead"},
	})
}

func BenchmarkAblationBlockSize(b *testing.B) {
	benchExperiment(b, "ablation-blocksize", map[string][2]string{
		"b50-GF":  {"tall 1e5x1000", "b=50"},
		"b100-GF": {"tall 1e5x1000", "b=100"},
		"b200-GF": {"tall 1e5x1000", "b=200"},
	})
}

func BenchmarkAblationTwoLevel(b *testing.B) {
	benchExperiment(b, "ablation-twolevel", map[string][2]string{
		"c1-GF": {"square 5000", "c=1"},
		"c4-GF": {"square 5000", "c=4"},
	})
}

func BenchmarkAblationTr(b *testing.B) {
	benchExperiment(b, "ablation-tr", map[string][2]string{
		"tr1-GF": {"tall 1e6x100", "Tr=1"},
		"tr8-GF": {"tall 1e6x100", "Tr=8"},
	})
}

func BenchmarkAblationSync(b *testing.B) {
	benchExperiment(b, "ablation-sync", map[string][2]string{
		"calu-edges":   {"tall 1e5x1000", "CALU-edges"},
		"vendor-edges": {"tall 1e5x1000", "vendor-edges"},
	})
}

// --- Measured micro-benchmarks of the real kernels (host-dependent). ---

func BenchmarkMeasuredCALUTallSkinny(b *testing.B) {
	orig := matrix.Random(8000, 100, 1)
	opt := core.Options{BlockSize: 100, PanelThreads: 4, Workers: 4, Lookahead: true}
	canon := baseline.LUFlops(8000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if _, err := core.CALU(context.Background(), a, opt, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredGETF2TallSkinny(b *testing.B) {
	orig := matrix.Random(8000, 100, 1)
	canon := baseline.LUFlops(8000, 100)
	ipiv := make([]int, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if err := lapack.GETF2(a, ipiv); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredPGETRFTallSkinny(b *testing.B) {
	orig := matrix.Random(8000, 100, 1)
	canon := baseline.LUFlops(8000, 100)
	ipiv := make([]int, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if err := lapack.PGETRF(a, ipiv, 64, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredTiledLU(b *testing.B) {
	orig := matrix.Random(1024, 1024, 2)
	canon := baseline.LUFlops(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if _, err := tiled.GETRF(context.Background(), a, tiled.Options{TileSize: 128, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredTSQR(b *testing.B) {
	orig := matrix.Random(8000, 64, 3)
	canon := baseline.QRFlops(8000, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		tsqr.Factor(a, 4, tslu.Binary)
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredCAQRSquare(b *testing.B) {
	orig := matrix.Random(512, 512, 4)
	canon := baseline.QRFlops(512, 512)
	opt := core.Options{BlockSize: 64, PanelThreads: 4, Workers: 4, Tree: tslu.Flat, Lookahead: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if _, err := core.CAQR(context.Background(), a, opt, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(canon*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func BenchmarkMeasuredPublicAPISolve(b *testing.B) {
	orig := factor.Random(512, 512, 5)
	rhs := factor.Random(512, 1, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		r := rhs.Clone()
		b.StartTimer()
		lu, err := factor.LU(a, factor.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		lu.Solve(r)
	}
}

// BenchmarkSimulatorThroughput measures the virtual-time scheduler itself
// (tasks simulated per second), since every modeled experiment rides on it.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g := core.BuildCALUGraph(100000, 1000, core.Options{BlockSize: 100, PanelThreads: 8, Lookahead: true})
	mach := machine.Intel8()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simsched.Run(g, mach)
	}
	b.ReportMetric(float64(g.Len()), "tasks")
}

func BenchmarkCommStructure(b *testing.B) {
	benchExperiment(b, "comm", map[string][2]string{
		"panel-syncs-classic": {"tall 1e5x1000", "panel-syncs-classic"},
		"panel-syncs-binary":  {"tall 1e5x1000", "panel-syncs-binary"},
	})
}

func BenchmarkDistMessages(b *testing.B) {
	benchExperiment(b, "dist", map[string][2]string{
		"tslu-msgs-P8": {"P=8", "TSLU"},
		"gepp-msgs-P8": {"P=8", "GEPP"},
	})
}

func BenchmarkOOCTraffic(b *testing.B) {
	benchExperiment(b, "ooc", map[string][2]string{
		"gap-1e5": {"m=100000", "GEPP/TSLU"},
	})
}

func BenchmarkScaling(b *testing.B) {
	benchExperiment(b, "scaling", map[string][2]string{
		"calu-tall-8c": {"cores=8", "CALU-tall"},
	})
}

func BenchmarkStabilitySweep(b *testing.B) {
	benchExperiment(b, "stability-sweep", map[string][2]string{
		"ratio-tr8": {"Tr=8", "ratio-mean"},
	})
}

func BenchmarkAblationStructuredTree(b *testing.B) {
	benchExperiment(b, "ablation-structured", map[string][2]string{
		"dense-GF":      {"square 5000", "dense-tree"},
		"structured-GF": {"square 5000", "structured-tree"},
	})
}

func BenchmarkParity(b *testing.B) {
	benchExperiment(b, "parity", map[string][2]string{
		"mean-rel-dev": {"MEAN", "rel-dev"},
	})
}

// BenchmarkOneShot and BenchmarkEngineReuse compare the per-call cost of
// the one-shot public API (a private worker pool per factorization) against
// a persistent factor.Engine (one shared pool reused across calls) on the
// same repeated 1000 x 200 CALU. The interesting column is allocs/op: the
// engine saves the per-call pool construction, goroutine spawn/teardown and
// — via the scratch pools warmed by earlier calls — most panel workspaces.
func BenchmarkOneShot(b *testing.B) {
	orig := factor.Random(1000, 200, 3)
	opt := factor.Options{BlockSize: 100, PanelThreads: 4, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if _, err := factor.LU(a, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineReuse(b *testing.B) {
	orig := factor.Random(1000, 200, 3)
	opt := factor.Options{BlockSize: 100, PanelThreads: 4}
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 4})
	defer eng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := orig.Clone()
		b.StartTimer()
		if _, err := eng.LUCtx(context.Background(), a, opt); err != nil {
			b.Fatal(err)
		}
	}
}
