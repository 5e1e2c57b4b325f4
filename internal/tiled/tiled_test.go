package tiled

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func TestGridTiling(t *testing.T) {
	g := newGrid(25, 10, 8)
	if g.mt != 4 || g.nt != 2 {
		t.Fatalf("grid %dx%d tiles", g.mt, g.nt)
	}
	r0, c0, rows, cols := g.tile(3, 1)
	if r0 != 24 || c0 != 8 || rows != 1 || cols != 2 {
		t.Fatalf("tile(3,1) = %d %d %dx%d", r0, c0, rows, cols)
	}
}

func TestTiledLUSolve(t *testing.T) {
	for _, tc := range []struct{ n, tile, workers int }{
		{24, 8, 1}, {24, 8, 4}, {30, 7, 2}, {50, 16, 4}, {16, 16, 2}, {10, 3, 3},
	} {
		orig := matrix.Random(tc.n, tc.n, int64(tc.n*31+tc.tile))
		xWant := matrix.Random(tc.n, 2, int64(tc.n))
		rhs := blas.Mul(blas.NoTrans, blas.NoTrans, orig, xWant)
		lu, err := GETRF(context.Background(), orig.Clone(), Options{TileSize: tc.tile, Workers: tc.workers})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		lu.Solve(rhs)
		if !rhs.EqualApprox(xWant, 1e-7) {
			t.Errorf("%+v: wrong solution", tc)
		}
	}
}

func TestTiledLUDeterministicAcrossWorkers(t *testing.T) {
	orig := matrix.Random(40, 40, 3)
	var ref *matrix.Dense
	for _, w := range []int{1, 2, 4} {
		a := orig.Clone()
		if _, err := GETRF(context.Background(), a, Options{TileSize: 10, Workers: w}); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = a
		} else if !a.Equal(ref) {
			t.Fatalf("workers=%d changed bits", w)
		}
	}
}

func TestTiledLUUpperTriangularU(t *testing.T) {
	// After incremental pivoting, the upper triangle is a genuine U whose
	// diagonal is nonzero for a well-conditioned matrix.
	a := matrix.DiagonallyDominant(32, 5)
	lu, err := GETRF(context.Background(), a, Options{TileSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if lu.A.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d", i)
		}
	}
}

func TestTiledLUSingular(t *testing.T) {
	a := matrix.New(16, 16)
	if _, err := GETRF(context.Background(), a, Options{TileSize: 4, Workers: 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestTiledLURectangular(t *testing.T) {
	// m > n rectangular: factor and verify by solving the square top via
	// reconstruction is hard without a global P, so check that factoring
	// completes and the panel chain ran (ops recorded).
	a := matrix.Random(50, 20, 7)
	lu, err := GETRF(context.Background(), a, Options{TileSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// nt=3 panels; ops per panel: 1 GETRF + (mt-k-1) TSTRF.
	wantOps := 0
	g := newGrid(50, 20, 8)
	for k := 0; k < g.nt; k++ {
		wantOps += 1 + (g.mt - k - 1)
	}
	if len(lu.ops) != wantOps {
		t.Fatalf("ops = %d want %d", len(lu.ops), wantOps)
	}
}

func TestTiledQRFactors(t *testing.T) {
	for _, tc := range []struct{ m, n, tile, workers int }{
		{24, 24, 8, 1}, {24, 24, 8, 4}, {40, 16, 8, 2}, {30, 10, 7, 3}, {64, 8, 8, 4},
	} {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*13+tc.tile))
		qr, err := GEQRF(context.Background(), orig.Clone(), Options{TileSize: tc.tile, Workers: tc.workers})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		q := qr.ExplicitQ()
		r := qr.R()
		qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
		for i := 0; i < tc.n; i++ {
			qtq.Set(i, i, qtq.At(i, i)-1)
		}
		if e := qtq.MaxAbs(); e > 1e-11*float64(tc.m) {
			t.Errorf("%+v: ||Q^T Q - I|| = %g", tc, e)
		}
		prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
		if !prod.EqualApprox(orig, 1e-10*float64(tc.m)) {
			t.Errorf("%+v: A != Q R", tc)
		}
	}
}

func TestTiledQRLeastSquares(t *testing.T) {
	m, n := 60, 10
	a := matrix.Random(m, n, 17)
	xWant := matrix.Random(n, 1, 18)
	rhs := blas.Mul(blas.NoTrans, blas.NoTrans, a, xWant)
	qr, err := GEQRF(context.Background(), a.Clone(), Options{TileSize: 8, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := qr.LeastSquares(rhs)
	if !x.EqualApprox(xWant, 1e-8) {
		t.Fatal("wrong least-squares solution")
	}
}

func TestTiledQRDeterministicAcrossWorkers(t *testing.T) {
	orig := matrix.Random(32, 32, 19)
	var ref *matrix.Dense
	for _, w := range []int{1, 2, 4} {
		a := orig.Clone()
		if _, err := GEQRF(context.Background(), a, Options{TileSize: 8, Workers: w}); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = a
		} else if !a.Equal(ref) {
			t.Fatalf("workers=%d changed bits", w)
		}
	}
}

func TestTiledGraphShapes(t *testing.T) {
	// For an mt x nt = 4x2 grid: LU tasks = sum_k [1 GETRF + (nt-k-1) GESSM
	// + (mt-k-1)(1 TSTRF + (nt-k-1) SSSSM)].
	gLU := BuildGETRFGraph(32, 16, Options{TileSize: 8, Workers: 1})
	want := 0
	for k := 0; k < 2; k++ {
		want += 1 + (2 - k - 1) + (4-k-1)*(1+(2-k-1))
	}
	if gLU.Len() != want {
		t.Fatalf("LU graph %d tasks want %d", gLU.Len(), want)
	}
	if err := gLU.Validate(); err != nil {
		t.Fatal(err)
	}
	gQR := BuildGEQRFGraph(32, 16, Options{TileSize: 8, Workers: 1})
	if gQR.Len() != want {
		t.Fatalf("QR graph %d tasks want %d", gQR.Len(), want)
	}
	if err := gQR.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTiledPanelChainIsSequential(t *testing.T) {
	// The defining property vs CALU/CAQR: the panel kernels of one column
	// form a dependency chain, so the critical path grows with mt. Check
	// via the graph's critical path under unit task durations.
	gShort := BuildGEQRFGraph(16, 8, Options{TileSize: 8, Workers: 1}) // mt=2
	gTall := BuildGEQRFGraph(128, 8, Options{TileSize: 8, Workers: 1}) // mt=16
	spanShort, _ := gShort.CriticalPath(func(*sched.Task) float64 { return 1 })
	spanTall, _ := gTall.CriticalPath(func(*sched.Task) float64 { return 1 })
	if spanTall < spanShort+10 {
		t.Fatalf("tall panel chain span %v not much larger than short %v", spanTall, spanShort)
	}
}

func TestTiledQRGramProperty(t *testing.T) {
	f := func(seed int64, tileRaw, wRaw uint8) bool {
		m := 20 + int(uint64(seed)%30)
		n := 5 + int(uint64(seed)%10)
		if m < n {
			m = n
		}
		tile := int(tileRaw)%10 + 2
		workers := int(wRaw)%4 + 1
		orig := matrix.Random(m, n, seed)
		qr, err := GEQRF(context.Background(), orig.Clone(), Options{TileSize: tile, Workers: workers})
		if err != nil {
			return false
		}
		r := qr.R()
		ata := blas.Mul(blas.Trans, blas.NoTrans, orig, orig)
		rtr := blas.Mul(blas.Trans, blas.NoTrans, r, r)
		return ata.EqualApprox(rtr, 1e-9*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTiledLUSolveProperty(t *testing.T) {
	f := func(seed int64, tileRaw, wRaw uint8) bool {
		n := 12 + int(uint64(seed)%24)
		tile := int(tileRaw)%10 + 2
		workers := int(wRaw)%4 + 1
		orig := matrix.DiagonallyDominant(n, seed)
		x := matrix.Random(n, 1, seed+1)
		rhs := blas.Mul(blas.NoTrans, blas.NoTrans, orig, x)
		lu, err := GETRF(context.Background(), orig.Clone(), Options{TileSize: tile, Workers: workers})
		if err != nil {
			return false
		}
		lu.Solve(rhs)
		return rhs.EqualApprox(x, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// growthFactorTiled measures incremental pivoting's element growth, which
// is known to exceed partial pivoting's — the price PLASMA pays for its
// DAG-friendly panels, and part of why CALU's ca-pivoting matters.
func TestTiledLUGrowthFinite(t *testing.T) {
	orig := matrix.Random(64, 64, 23)
	lu, err := GETRF(context.Background(), orig.Clone(), Options{TileSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	maxU := 0.0
	for j := 0; j < 64; j++ {
		for i := 0; i <= j; i++ {
			if v := math.Abs(lu.A.At(i, j)); v > maxU {
				maxU = v
			}
		}
	}
	if g := maxU / orig.MaxAbs(); g > 1e4 || math.IsNaN(g) {
		t.Fatalf("growth %v unreasonable", g)
	}
}

func TestTiledGraphBoundMatchesUnbound(t *testing.T) {
	// The graph-only builders must produce the same shape as the bound runs.
	opt := Options{TileSize: 8, Workers: 2}
	a := matrix.Random(40, 24, 41)
	lu, err := GETRF(context.Background(), a.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	gLU := BuildGETRFGraph(40, 24, opt)
	if lu.Graph.Len() != gLU.Len() || lu.Graph.Edges() != gLU.Edges() {
		t.Fatalf("LU graphs differ: %d/%d vs %d/%d",
			lu.Graph.Len(), lu.Graph.Edges(), gLU.Len(), gLU.Edges())
	}
	qr, err := GEQRF(context.Background(), a.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	gQR := BuildGEQRFGraph(40, 24, opt)
	if qr.Graph.Len() != gQR.Len() || qr.Graph.Edges() != gQR.Edges() {
		t.Fatalf("QR graphs differ: %d/%d vs %d/%d",
			qr.Graph.Len(), qr.Graph.Edges(), gQR.Len(), gQR.Edges())
	}
}

// TestTiledOnPool runs both factorizations on their pool executor: the
// factors do not depend on the worker count, and a cancelled context comes
// back as an error, not a panic.
func TestTiledOnPool(t *testing.T) {
	opt := Options{TileSize: 8, Workers: 2}
	orig := matrix.Random(32, 24, 29)

	want, got := orig.Clone(), orig.Clone()
	if _, err := GETRF(context.Background(), want, Options{TileSize: 8, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := GETRF(context.Background(), got, opt); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("GETRF factors depend on the worker count")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GETRF(ctx, orig.Clone(), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GETRF = %v, want context.Canceled", err)
	}
	if _, err := GEQRF(ctx, orig.Clone(), opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GEQRF = %v, want context.Canceled", err)
	}
}
