package bench

import (
	"context"
	"strings"
	"testing"
)

// get returns the value of column c in the row labeled label.
func get(t *testing.T, tb *Table, label, c string) float64 {
	t.Helper()
	for _, r := range tb.Rows {
		if r.Label == label {
			v, ok := r.Values[c]
			if !ok {
				t.Fatalf("%s: row %q has no column %q", tb.ID, label, c)
			}
			return v
		}
	}
	t.Fatalf("%s: no row %q", tb.ID, label)
	return 0
}

func runModeled(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e.Run(context.Background(), Config{Mode: Modeled})
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"table1", "table2", "table3", "stability",
		"ablation-tree", "ablation-lookahead", "ablation-blocksize",
		"ablation-twolevel", "ablation-tr", "ablation-sync", "comm", "dist",
		"stability-sweep", "ooc", "scaling", "parity", "ablation-structured",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range Experiments() {
		tb := e.Run(context.Background(), Config{Mode: Modeled})
		if tb.ID != e.ID {
			t.Errorf("%s: table ID %q", e.ID, tb.ID)
		}
		if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Errorf("%s: empty table", e.ID)
		}
		var b strings.Builder
		tb.Format(&b)
		if !strings.Contains(b.String(), e.PaperRef) {
			t.Errorf("%s: formatted output missing paper ref", e.ID)
		}
	}
}

// TestFig5Shape checks the paper's headline tall-skinny LU claims on the
// modeled 8-core Intel machine.
func TestFig5Shape(t *testing.T) {
	tb := runModeled(t, "fig5")
	for _, n := range []string{"100000x10", "100000x100", "100000x200", "100000x500"} {
		calu := get(t, tb, n, "CALU(Tr=8)")
		mkl := get(t, tb, n, "dgetrf")
		f2 := get(t, tb, n, "dgetf2")
		plasma := get(t, tb, n, "PLASMA")
		if calu <= mkl {
			t.Errorf("%s: CALU %f not above dgetrf %f", n, calu, mkl)
		}
		if calu <= f2 {
			t.Errorf("%s: CALU %f not above dgetf2 %f", n, calu, f2)
		}
		if calu <= plasma {
			t.Errorf("%s: CALU %f not above PLASMA %f", n, calu, plasma)
		}
	}
	// Tr=8 must beat Tr=4 on tall-skinny (more panel parallelism).
	if get(t, tb, "100000x100", "CALU(Tr=8)") <= get(t, tb, "100000x100", "CALU(Tr=4)") {
		t.Error("Tr=8 not above Tr=4 at n=100")
	}
	// PLASMA closes the gap as n grows (paper: speedup decreases with n).
	gap200 := get(t, tb, "100000x200", "CALU(Tr=8)") / get(t, tb, "100000x200", "PLASMA")
	gap1000 := get(t, tb, "100000x1000", "CALU(Tr=8)") / get(t, tb, "100000x1000", "PLASMA")
	if gap1000 >= gap200 {
		t.Errorf("CALU/PLASMA gap does not shrink: %f at n=200 vs %f at n=1000", gap200, gap1000)
	}
}

// TestFig6Shape checks the m=10^6 variant including the ~10x dgetf2 claim.
func TestFig6Shape(t *testing.T) {
	tb := runModeled(t, "fig6")
	calu := get(t, tb, "1000000x100", "CALU(Tr=8)")
	f2 := get(t, tb, "1000000x100", "dgetf2")
	if ratio := calu / f2; ratio < 5 || ratio > 25 {
		t.Errorf("CALU/dgetf2 at 10^6x100 = %f, paper reports ~10x", ratio)
	}
	mkl := get(t, tb, "1000000x500", "dgetrf")
	calu500 := get(t, tb, "1000000x500", "CALU(Tr=8)")
	if ratio := calu500 / mkl; ratio < 1.5 || ratio > 6 {
		t.Errorf("CALU/dgetrf at 10^6x500 = %f, paper reports ~2.3x", ratio)
	}
}

// TestFig7Shape checks the AMD machine: CALU(Tr=16) well above ACML.
func TestFig7Shape(t *testing.T) {
	tb := runModeled(t, "fig7")
	total, count := 0.0, 0
	for _, r := range tb.Rows {
		total += r.Values["CALU(Tr=16)"] / r.Values["dgetrf"]
		count++
	}
	if avg := total / float64(count); avg < 2.5 {
		t.Errorf("average CALU/ACML speedup %f, paper reports ~5x", avg)
	}
}

// TestTable1Shape checks the square-matrix trade-off on Intel: MKL wins at
// small n, CALU competitive at 10000, CALU above PLASMA for n >= 3000.
func TestTable1Shape(t *testing.T) {
	tb := runModeled(t, "table1")
	if get(t, tb, "m=n=1000", "MKL") <= get(t, tb, "m=n=1000", "CALU(Tr=8)") {
		t.Error("MKL should win at n=1000")
	}
	best10000 := 0.0
	for _, tr := range []string{"CALU(Tr=1)", "CALU(Tr=2)", "CALU(Tr=4)", "CALU(Tr=8)"} {
		if v := get(t, tb, "m=n=10000", tr); v > best10000 {
			best10000 = v
		}
	}
	if best10000 < get(t, tb, "m=n=10000", "MKL")*0.95 {
		t.Errorf("best CALU %f should be competitive with MKL %f at n=10000",
			best10000, get(t, tb, "m=n=10000", "MKL"))
	}
	for _, n := range []string{"m=n=4000", "m=n=5000", "m=n=10000"} {
		if get(t, tb, n, "CALU(Tr=2)") <= get(t, tb, n, "PLASMA") {
			t.Errorf("%s: CALU should beat PLASMA", n)
		}
	}
}

// TestTable2Shape checks the AMD square-matrix crossover: ACML wins small,
// CALU overtakes by n=3000-5000, CALU above PLASMA throughout.
func TestTable2Shape(t *testing.T) {
	tb := runModeled(t, "table2")
	bestCALU := func(label string) float64 {
		best := 0.0
		for _, tr := range []string{"CALU(Tr=1)", "CALU(Tr=2)", "CALU(Tr=4)", "CALU(Tr=8)", "CALU(Tr=16)"} {
			if v := get(t, tb, label, tr); v > best {
				best = v
			}
		}
		return best
	}
	if bestCALU("m=n=5000") <= get(t, tb, "m=n=5000", "ACML") {
		t.Error("CALU should overtake ACML by n=5000")
	}
	for _, n := range []string{"m=n=2000", "m=n=3000", "m=n=5000"} {
		if bestCALU(n) <= get(t, tb, n, "PLASMA") {
			t.Errorf("%s: CALU should be above PLASMA", n)
		}
	}
}

// TestFig8Shape checks the QR claims: TSQR dominates everything for small
// n; PLASMA overtakes as n grows; dgeqr2 is far below.
func TestFig8Shape(t *testing.T) {
	tb := runModeled(t, "fig8")
	for _, n := range []string{"100000x10", "100000x100", "100000x200"} {
		tsqr := get(t, tb, n, "TSQR")
		for _, other := range []string{"dgeqrf", "dgeqr2", "PLASMA"} {
			if tsqr <= get(t, tb, n, other) {
				t.Errorf("%s: TSQR %f not above %s %f", n, tsqr, other, get(t, tb, n, other))
			}
		}
	}
	// Paper: TSQR ~5.3x dgeqrf at n=200.
	ratio := get(t, tb, "100000x200", "TSQR") / get(t, tb, "100000x200", "dgeqrf")
	if ratio < 2.5 || ratio > 10 {
		t.Errorf("TSQR/dgeqrf at n=200 = %f, paper reports 5.3x", ratio)
	}
	// Paper: PLASMA overtakes TSQR by n=1000.
	if get(t, tb, "100000x1000", "PLASMA") <= get(t, tb, "100000x1000", "TSQR") {
		t.Error("PLASMA should overtake TSQR at n=1000")
	}
	// CAQR beats plain dgeqrf at n=500..1000 (paper: ~1.6x).
	if get(t, tb, "100000x500", "CAQR(Tr=4)") <= get(t, tb, "100000x500", "dgeqrf") {
		t.Error("CAQR should beat dgeqrf at n=500")
	}
}

// TestTable3Shape checks square QR: MKL above CAQR, PLASMA between.
func TestTable3Shape(t *testing.T) {
	tb := runModeled(t, "table3")
	for _, n := range []string{"m=n=1000", "m=n=3000", "m=n=5000"} {
		mkl := get(t, tb, n, "MKL")
		caqr := get(t, tb, n, "CAQR(Tr=4)")
		if mkl <= caqr {
			t.Errorf("%s: MKL %f should beat CAQR %f on square QR", n, mkl, caqr)
		}
	}
}

// TestFig3Fig4Shape checks the trace experiments: Tr=1 idles, Tr=8 does not.
func TestFig3Fig4Shape(t *testing.T) {
	idle1 := get(t, runModeled(t, "fig3"), "share", "idle")
	idle8 := get(t, runModeled(t, "fig4"), "share", "idle")
	if idle8 >= idle1 {
		t.Errorf("fig4 idle %f not below fig3 idle %f", idle8, idle1)
	}
	if idle1 < 0.15 {
		t.Errorf("fig3 idle %f too low for a serialized panel", idle1)
	}
}

// TestStabilityShape: CALU growth within an order of magnitude of GEPP.
func TestStabilityShape(t *testing.T) {
	tb := runModeled(t, "stability")
	for _, r := range tb.Rows {
		gepp, calu := r.Values["GEPP"], r.Values["CALU"]
		if calu > 20*gepp+10 {
			t.Errorf("%s: CALU growth %f far above GEPP %f", r.Label, calu, gepp)
		}
		if resid := r.Values["CALUresid*1e16"]; resid > 1e4 {
			t.Errorf("%s: CALU residual %g*1e-16 too large", r.Label, resid)
		}
	}
}

// TestAblationShapes: sanity directions for the ablations.
func TestAblationShapes(t *testing.T) {
	tr := runModeled(t, "ablation-tr")
	// On the tall 1e6x100 shape, Tr=8 should beat Tr=1 decisively.
	if get(t, tr, "tall 1e6x100", "Tr=8") <= 2*get(t, tr, "tall 1e6x100", "Tr=1") {
		t.Error("Tr=8 should be >2x Tr=1 on very tall-skinny")
	}
	la := runModeled(t, "ablation-lookahead")
	// Look-ahead should never lose badly, and should help on tall shapes.
	for _, r := range la.Rows {
		if r.Values["lookahead"] < 0.9*r.Values["no-lookahead"] {
			t.Errorf("%s: look-ahead hurt: %f vs %f", r.Label, r.Values["lookahead"], r.Values["no-lookahead"])
		}
	}
	sync := runModeled(t, "ablation-sync")
	if len(sync.Rows) == 0 {
		t.Fatal("ablation-sync empty")
	}
}

func TestCommShape(t *testing.T) {
	tb := runModeled(t, "comm")
	for _, r := range tb.Rows {
		if r.Values["panel-syncs-binary"] >= r.Values["panel-syncs-classic"] {
			t.Errorf("%s: binary tree syncs not below classic", r.Label)
		}
		if r.Values["span-Mflops-CALU"] >= r.Values["span-Mflops-vendor"] {
			t.Errorf("%s: CALU span not below vendor", r.Label)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{
		ID: "x", Columns: []string{"a", "b"},
		Rows: []RowData{{Label: "r1", Values: map[string]float64{"a": 1.5}}},
	}
	var sb strings.Builder
	tb.WriteCSV(&sb)
	want := "label,a,b\nr1,1.5,\n"
	if sb.String() != want {
		t.Fatalf("csv = %q want %q", sb.String(), want)
	}
}

func TestDistShape(t *testing.T) {
	tb := runModeled(t, "dist")
	for _, r := range tb.Rows {
		if r.Values["TSLU"] >= r.Values["GEPP"] {
			t.Errorf("%s: TSLU messages not below GEPP", r.Label)
		}
		if r.Values["GEPP/TSLU"] < 10 {
			t.Errorf("%s: message reduction only %.1fx", r.Label, r.Values["GEPP/TSLU"])
		}
	}
}

func TestStabilitySweepShape(t *testing.T) {
	tb := runModeled(t, "stability-sweep")
	for _, r := range tb.Rows {
		if r.Values["ratio-mean"] > 3 || r.Values["ratio-mean"] < 0.3 {
			t.Errorf("%s: CALU/GEPP mean growth ratio %.2f out of band", r.Label, r.Values["ratio-mean"])
		}
		if r.Values["CALU-max"] > 20*r.Values["GEPP-max"] {
			t.Errorf("%s: CALU max growth far beyond GEPP", r.Label)
		}
	}
}

// TestMeasuredModeSmoke exercises the real-execution path of the harness
// (the one `cabench -measured` uses) on the fastest experiments.
func TestMeasuredModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured mode is slow")
	}
	for _, id := range []string{"fig3", "stability", "ablation-sync", "dist"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tb := e.Run(context.Background(), Config{Mode: Measured, Workers: 2})
		if len(tb.Rows) == 0 {
			t.Errorf("%s measured: empty table", id)
		}
	}
}

func TestOOCShape(t *testing.T) {
	tb := runModeled(t, "ooc")
	for _, r := range tb.Rows {
		if r.Values["GEPP/TSLU"] < 50 {
			t.Errorf("%s: I/O gap only %.1fx, want ~b", r.Label, r.Values["GEPP/TSLU"])
		}
		if !(r.Values["TSLU-flat"] < r.Values["GEPP-blocked(nb=25)"] &&
			r.Values["GEPP-blocked(nb=25)"] < r.Values["GEPP-columns"]) {
			t.Errorf("%s: traffic ordering wrong", r.Label)
		}
	}
}

func TestScalingShape(t *testing.T) {
	tb := runModeled(t, "scaling")
	tall1 := get(t, tb, "cores=1", "CALU-tall")
	tall8 := get(t, tb, "cores=8", "CALU-tall")
	if tall8 < 6*tall1 {
		t.Errorf("CALU tall-skinny scaling 1->8 cores only %.1fx", tall8/tall1)
	}
	v1 := get(t, tb, "cores=1", "vendor-tall")
	v8 := get(t, tb, "cores=8", "vendor-tall")
	if v8 > 1.5*v1 {
		t.Errorf("vendor tall-skinny should plateau: %.1f -> %.1f", v1, v8)
	}
}

func TestParityShape(t *testing.T) {
	tb := runModeled(t, "parity")
	var mean float64
	found := false
	for _, r := range tb.Rows {
		if r.Label == "MEAN" {
			mean = r.Values["rel-dev"]
			found = true
		}
	}
	if !found {
		t.Fatal("no MEAN row")
	}
	// The model should track the paper within a mean relative deviation of
	// ~35% across Tables I-III (calibrated on 4 anchors only).
	if mean > 0.35 {
		t.Errorf("mean relative deviation %.2f too large", mean)
	}
}
