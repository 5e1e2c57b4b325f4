package bench

// GEMM performance trajectory: the packed Goto-style Dgemm (internal/blas)
// against the frozen pre-refactor reference (internal/baseline), the fused
// GEMM-TRSM Dtrsm at the two shapes CALU issues against baseline.RefTrsm,
// the masked-pack Dtrmm at the shapes CAQR issues against baseline.RefTrmm,
// lapack.Larfb at CAQR's leaf and tree-node shapes against the same
// algorithm on the reference kernels, plus the BenchmarkEngineReuse-shaped
// end-to-end LU as the workload-level check.
// cmd/cabench serializes the report to BENCH_gemm.json so the perf
// trajectory is checked in alongside the code, and CI gates on the 512
// square speedup staying above a floor.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
)

// GemmCase is one measured GEMM shape.
type GemmCase struct {
	// Name labels the shape (square-512, panel-tall-update, ...).
	Name string `json:"name"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	// TransA marks cases run as Aᵀ·B ("T"); empty means no transpose. The
	// Larfb-shaped cases exercise the transposed pack path the QR
	// block-reflector applications hit.
	TransA string `json:"trans_a,omitempty"`
	// PackedGFlops is the packed-kernel rate, BaselineGFlops the frozen
	// reference kernel's rate, both measured in this run.
	PackedGFlops   float64 `json:"packed_gflops"`
	BaselineGFlops float64 `json:"baseline_gflops"`
	// Speedup is PackedGFlops / BaselineGFlops.
	Speedup float64 `json:"speedup"`
}

// TriCase is one measured Dtrsm or Dtrmm shape: m x n operand B against
// the triangle of order m (side "L") or n (side "R").
type TriCase struct {
	// Name labels the shape (calu-l-block, larfb-v1, ...).
	Name string `json:"name"`
	Side string `json:"side"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	// PackedGFlops is the packed kernel's rate, BaselineGFlops
	// baseline.RefTrsm's or RefTrmm's, both counting m*n*order flops and
	// measured in this run.
	PackedGFlops   float64 `json:"packed_gflops"`
	BaselineGFlops float64 `json:"baseline_gflops"`
	// Speedup is PackedGFlops / BaselineGFlops.
	Speedup float64 `json:"speedup"`
}

// LarfbCase is one measured block-reflector apply Q^T*C: V is M x K, C is
// M x N.
type LarfbCase struct {
	// Name labels the shape (caqr-leaf, caqr-node).
	Name string `json:"name"`
	M    int    `json:"m"`
	K    int    `json:"k"`
	N    int    `json:"n"`
	// PackedGFlops is lapack.Larfb's rate, BaselineGFlops the same
	// algorithm's on baseline.RefGemm/RefTrmm with a heap workspace, both
	// counting 4*m*n*k - n*k^2 flops and measured in this run.
	PackedGFlops   float64 `json:"packed_gflops"`
	BaselineGFlops float64 `json:"baseline_gflops"`
	// Speedup is PackedGFlops / BaselineGFlops.
	Speedup float64 `json:"speedup"`
}

// EngineReuseResult is the end-to-end workload check: the
// BenchmarkEngineReuse shape (repeated 1000x200 CALU through a persistent
// engine) timed against the current BLAS. The "before" side of the
// trajectory lives in EXPERIMENTS.md, measured at the pre-refactor commit.
type EngineReuseResult struct {
	M          int     `json:"m"`
	N          int     `json:"n"`
	BlockSize  int     `json:"block_size"`
	Iterations int     `json:"iterations"`
	MsPerOp    float64 `json:"ms_per_op"`
}

// GemmReport is the serialized BENCH_gemm.json payload.
type GemmReport struct {
	// Kernel identifies the active microkernel (see blas.KernelName).
	Kernel string `json:"kernel"`
	GOARCH string `json:"goarch"`
	GOOS   string `json:"goos"`
	NumCPU int    `json:"num_cpu"`
	// MC, KC, NC are the cache block sizes the packed driver ran with.
	MC int `json:"mc"`
	KC int `json:"kc"`
	NC int `json:"nc"`
	// Cases covers 128-1024 square plus the panel shapes the factorizations
	// actually issue.
	Cases []GemmCase `json:"cases"`
	// Trsm covers the triangular solves CALU issues per panel.
	Trsm []TriCase `json:"trsm"`
	// Trmm covers the triangular multiplies of CAQR's updates.
	Trmm []TriCase `json:"trmm"`
	// Larfb covers CAQR's trailing-update kernel.
	Larfb []LarfbCase `json:"larfb"`
	// EngineReuse is the end-to-end LU workload measurement.
	EngineReuse EngineReuseResult `json:"engine_reuse"`
}

// gemmShapes are the trajectory points: the square sweep the issue names,
// the panel shapes CALU/CAQR trailing updates issue (tall A against a
// narrow panel, and a rank-b trailing update), and the Larfb block-reflector
// shapes (W = Vᵀ·C against a tall-skinny V, the C -= V·W rank-b apply, and
// the small T-sized triangle product) the QR update path spends its time in.
var gemmShapes = []struct {
	name    string
	ta      blas.Transpose
	m, n, k int
}{
	{"square-128", blas.NoTrans, 128, 128, 128},
	{"square-256", blas.NoTrans, 256, 256, 256},
	{"square-512", blas.NoTrans, 512, 512, 512},
	{"square-1024", blas.NoTrans, 1024, 1024, 1024},
	{"panel-tall-update", blas.NoTrans, 1024, 128, 128},
	{"panel-wide-update", blas.NoTrans, 128, 1024, 128},
	{"trailing-rank100", blas.NoTrans, 900, 900, 100},
	{"larfb-vtc", blas.Trans, 64, 256, 1984},
	{"larfb-cvw", blas.NoTrans, 1984, 256, 64},
	{"larfb-small-t", blas.NoTrans, 64, 256, 64},
}

// trsmShapes are the CALU solves: the L-block X*U = B (right, upper,
// non-unit) over the rows below a 100-wide panel, and the U-block L*X = B
// (left, unit lower) across ColsPerTask = 4 block columns.
var trsmShapes = []struct {
	name string
	side blas.Side
	uplo blas.Uplo
	diag blas.Diag
	m, n int
}{
	{"calu-l-block", blas.Right, blas.Upper, blas.NonUnit, 50000, 100},
	{"calu-u-block", blas.Left, blas.Lower, blas.Unit, 100, 400},
}

// trmmShapes are the multiplies of a CAQR update at b = 100: Larfb's
// W = V1^T W (unit lower, transposed) and W = T^T W (upper, transposed)
// against a 100-column block, and GEQR3's T12 = T12 * V2 (right, unit
// lower) at the top of a 100-wide recursion.
var trmmShapes = []struct {
	name  string
	side  blas.Side
	uplo  blas.Uplo
	trans blas.Transpose
	diag  blas.Diag
	m, n  int
}{
	{"larfb-v1", blas.Left, blas.Lower, blas.Trans, blas.Unit, 100, 100},
	{"larfb-t", blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 100, 100},
	{"geqr3-t12", blas.Right, blas.Lower, blas.NoTrans, blas.Unit, 50, 50},
}

// larfbShapes are CAQR's trailing-update applies at b = 100 on the square
// workload: a TSQR leaf (half of a 1400-row panel) and a binary-tree node
// stacking two R factors, each against one 100-column block.
var larfbShapes = []struct {
	name    string
	m, k, n int
}{
	{"caqr-leaf", 700, 100, 100},
	{"caqr-node", 200, 100, 100},
}

// timeTri measures one trsm or trmm implementation, restoring B before
// every call (outside the timed interval) so repeated calls see the same
// operand, until the timed total exceeds minSample.
func timeTri(side blas.Side, m, n int, minSample time.Duration,
	run func(a []float64, lda int, b []float64)) float64 {
	na := m
	if side == blas.Right {
		na = n
	}
	// A well-conditioned triangle: small off-diagonals, dominant diagonal.
	a := fillSeq(na * na)
	for i := range a {
		a[i] /= 8 * float64(na)
	}
	for i := 0; i < na; i++ {
		a[i*na+i] += 2
	}
	src := fillSeq(m * n)
	b := make([]float64, m*n)
	reps := 0
	var el time.Duration
	for reps < 2 || el < minSample {
		copy(b, src)
		start := time.Now()
		run(a, na, b)
		if reps > 0 { // the first solve warms pools and pages
			el += time.Since(start)
		}
		reps++
	}
	return gflops(float64(m)*float64(n)*float64(na)*float64(reps-1), el.Seconds())
}

// newTriCase records one triangular-kernel measurement.
func newTriCase(name string, side blas.Side, m, n int, packed, base float64) TriCase {
	tc := TriCase{Name: name, Side: "R", M: m, N: n, PackedGFlops: packed, BaselineGFlops: base}
	if side == blas.Left {
		tc.Side = "L"
	}
	if base > 0 {
		tc.Speedup = packed / base
	}
	return tc
}

// timeLarfb measures one Q^T*C implementation for an m x k reflector block
// from GEQR3 against an m x n C. Q is orthogonal, so repeated applies keep
// C's scale and need no restore.
func timeLarfb(m, k, n int, minSample time.Duration, run func(trans blas.Transpose, v, t, c *matrix.Dense)) float64 {
	v := matrix.FromColMajor(m, k, m, fillSeq(m*k))
	tau := make([]float64, k)
	t := matrix.New(k, k)
	lapack.GEQR3(v, tau, t)
	c := matrix.FromColMajor(m, n, m, fillSeq(m*n))
	run(blas.Trans, v, t, c) // warm pools and pages
	reps := 0
	start := time.Now()
	for {
		run(blas.Trans, v, t, c)
		reps++
		if el := time.Since(start); el >= minSample && reps >= 2 {
			flops := 4*float64(m)*float64(n)*float64(k) - float64(n)*float64(k)*float64(k)
			return gflops(flops*float64(reps), el.Seconds())
		}
	}
}

// refLarfb is lapack.Larfb's algorithm on the frozen reference kernels,
// with its workspace on the heap as before it was pooled: the baseline of
// the Larfb rows.
func refLarfb(trans blas.Transpose, v, t, c *matrix.Dense) {
	m, k, n := v.Rows, v.Cols, c.Cols
	w := make([]float64, k*n)
	for j := 0; j < n; j++ {
		copy(w[j*k:j*k+k], c.Data[j*c.Stride:j*c.Stride+k])
	}
	baseline.RefTrmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, k, n, 1, v.Data, v.Stride, w, k)
	baseline.RefGemm(blas.Trans, blas.NoTrans, k, n, m-k, 1, v.Data[k:], v.Stride, c.Data[k:], c.Stride, 1, w, k)
	baseline.RefTrmm(blas.Left, blas.Upper, trans, blas.NonUnit, k, n, 1, t.Data, t.Stride, w, k)
	baseline.RefGemm(blas.NoTrans, blas.NoTrans, m-k, n, k, -1, v.Data[k:], v.Stride, w, k, 1, c.Data[k:], c.Stride)
	baseline.RefTrmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, k, n, 1, v.Data, v.Stride, w, k)
	for j := 0; j < n; j++ {
		cj := c.Data[j*c.Stride : j*c.Stride+k]
		for i, x := range w[j*k : j*k+k] {
			cj[i] -= x
		}
	}
}

// timeGemm measures one gemm implementation at m x n x k (with op(A) = Aᵀ
// when ta is Trans, so A is stored k x m), repeating until the sample
// exceeds minSample so short cases aren't timer-noise.
func timeGemm(ta blas.Transpose, m, n, k int, minSample time.Duration,
	run func(ta blas.Transpose, m, n, k, lda int, a, b, c []float64)) float64 {
	lda := m
	if ta == blas.Trans {
		lda = k
	}
	a := fillSeq(m * k)
	b := fillSeq(k * n)
	c := make([]float64, m*n)
	// Warm once (pools, page faults).
	run(ta, m, n, k, lda, a, b, c)
	reps := 0
	start := time.Now()
	for {
		run(ta, m, n, k, lda, a, b, c)
		reps++
		if el := time.Since(start); el >= minSample && reps >= 2 {
			return gflops(2*float64(m)*float64(n)*float64(k)*float64(reps), el.Seconds())
		}
	}
}

// fillSeq produces a deterministic non-constant operand.
func fillSeq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i%17) - 8
	}
	return s
}

// RunGemmReport measures the full trajectory. minSample bounds per-case
// noise (CI smoke uses a short sample, the checked-in report a longer one).
func RunGemmReport(ctx context.Context, cfg Config, minSample time.Duration) *GemmReport {
	mc, kc, nc := blas.BlockSizes()
	rep := &GemmReport{
		Kernel: blas.KernelName(),
		GOARCH: runtime.GOARCH,
		GOOS:   runtime.GOOS,
		NumCPU: runtime.NumCPU(),
		MC:     mc,
		KC:     kc,
		NC:     nc,
	}
	for _, s := range gemmShapes {
		progress(cfg, "gemm %s: packed...", s.name)
		packed := timeGemm(s.ta, s.m, s.n, s.k, minSample, func(ta blas.Transpose, m, n, k, lda int, a, b, c []float64) {
			blas.Dgemm(ta, blas.NoTrans, m, n, k, 1, a, lda, b, k, 0, c, m)
		})
		progress(cfg, "gemm %s: baseline...", s.name)
		base := timeGemm(s.ta, s.m, s.n, s.k, minSample, func(ta blas.Transpose, m, n, k, lda int, a, b, c []float64) {
			baseline.RefGemm(ta, blas.NoTrans, m, n, k, 1, a, lda, b, k, 0, c, m)
		})
		gc := GemmCase{Name: s.name, M: s.m, N: s.n, K: s.k,
			PackedGFlops: packed, BaselineGFlops: base}
		if s.ta == blas.Trans {
			gc.TransA = "T"
		}
		if base > 0 {
			gc.Speedup = packed / base
		}
		rep.Cases = append(rep.Cases, gc)
	}
	for _, s := range trsmShapes {
		progress(cfg, "trsm %s: packed...", s.name)
		packed := timeTri(s.side, s.m, s.n, minSample, func(a []float64, lda int, b []float64) {
			blas.Dtrsm(s.side, s.uplo, blas.NoTrans, s.diag, s.m, s.n, 1, a, lda, b, s.m)
		})
		progress(cfg, "trsm %s: baseline...", s.name)
		base := timeTri(s.side, s.m, s.n, minSample, func(a []float64, lda int, b []float64) {
			baseline.RefTrsm(s.side, s.uplo, blas.NoTrans, s.diag, s.m, s.n, 1, a, lda, b, s.m)
		})
		rep.Trsm = append(rep.Trsm, newTriCase(s.name, s.side, s.m, s.n, packed, base))
	}
	for _, s := range trmmShapes {
		progress(cfg, "trmm %s: packed...", s.name)
		packed := timeTri(s.side, s.m, s.n, minSample, func(a []float64, lda int, b []float64) {
			blas.Dtrmm(s.side, s.uplo, s.trans, s.diag, s.m, s.n, 1, a, lda, b, s.m)
		})
		progress(cfg, "trmm %s: baseline...", s.name)
		base := timeTri(s.side, s.m, s.n, minSample, func(a []float64, lda int, b []float64) {
			baseline.RefTrmm(s.side, s.uplo, s.trans, s.diag, s.m, s.n, 1, a, lda, b, s.m)
		})
		rep.Trmm = append(rep.Trmm, newTriCase(s.name, s.side, s.m, s.n, packed, base))
	}
	for _, s := range larfbShapes {
		progress(cfg, "larfb %s: packed...", s.name)
		packed := timeLarfb(s.m, s.k, s.n, minSample, lapack.Larfb)
		progress(cfg, "larfb %s: baseline...", s.name)
		base := timeLarfb(s.m, s.k, s.n, minSample, refLarfb)
		lc := LarfbCase{Name: s.name, M: s.m, K: s.k, N: s.n, PackedGFlops: packed, BaselineGFlops: base}
		if base > 0 {
			lc.Speedup = packed / base
		}
		rep.Larfb = append(rep.Larfb, lc)
	}
	rep.EngineReuse = runEngineReuse(ctx, cfg)
	return rep
}

// runEngineReuse times the BenchmarkEngineReuse workload: repeated
// 1000 x 200 blocked CALU through a persistent engine, clone excluded.
func runEngineReuse(ctx context.Context, cfg Config) EngineReuseResult {
	progress(cfg, "engine-reuse: %d iterations of %dx%d LU...", reuseIters, reuseM, reuseN)
	return EngineReuseResult{
		M: reuseM, N: reuseN, BlockSize: reuseB, Iterations: reuseIters,
		MsPerOp: engineReuseMs(ctx, reuseOptions),
	}
}

// SpeedupAt returns the measured speedup for the named case, or 0 if the
// report has no such case.
func (r *GemmReport) SpeedupAt(name string) float64 {
	for _, c := range r.Cases {
		if c.Name == name {
			return c.Speedup
		}
	}
	return 0
}

// WriteJSON serializes the report, indented for stable diffs in-tree.
func (r *GemmReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table renders the report in the cabench table format.
func (r *GemmReport) Table() *Table {
	t := &Table{
		ID:       "gemm",
		Title:    "Packed Dgemm, Dtrsm, Dtrmm and Larfb vs frozen baseline (GFlop/s)",
		PaperRef: "kernel trajectory (doc/KERNELS.md)",
		Columns:  []string{"packed", "baseline", "speedup"},
		Unit:     "GFlop/s (speedup is a ratio)",
		Notes: fmt.Sprintf("kernel=%s MC=%d KC=%d NC=%d; engine-reuse %dx%d LU: %.2f ms/op",
			r.Kernel, r.MC, r.KC, r.NC, r.EngineReuse.M, r.EngineReuse.N, r.EngineReuse.MsPerOp),
	}
	for _, c := range r.Cases {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("%s (%dx%dx%d)", c.Name, c.M, c.N, c.K),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	for _, c := range r.Trsm {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("trsm %s (%s %dx%d)", c.Name, c.Side, c.M, c.N),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	for _, c := range r.Trmm {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("trmm %s (%s %dx%d)", c.Name, c.Side, c.M, c.N),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	for _, c := range r.Larfb {
		t.Rows = append(t.Rows, RowData{
			Label: fmt.Sprintf("larfb %s (%dx%d, n=%d)", c.Name, c.M, c.K, c.N),
			Values: map[string]float64{
				"packed": c.PackedGFlops, "baseline": c.BaselineGFlops, "speedup": c.Speedup,
			},
		})
	}
	return t
}
