package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/tslu"
)

// checkCAQR factors a copy of orig and verifies A = Q*R and Q^T Q = I.
func checkCAQR(t *testing.T, orig *matrix.Dense, opt Options) {
	t.Helper()
	a := orig.Clone()
	res := mustCAQR(t, a, opt)
	q := res.ExplicitQ()
	r := res.R()
	qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
	for i := 0; i < qtq.Rows; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	if e := qtq.MaxAbs(); e > 1e-11*float64(orig.Rows) {
		t.Errorf("opt %+v: ||Q^T Q - I|| = %g", opt, e)
	}
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	if !prod.EqualApprox(orig, 1e-10*float64(orig.Rows)) {
		t.Errorf("opt %+v: A != Q*R", opt)
	}
}

func TestCAQRShapes(t *testing.T) {
	cases := []struct {
		m, n, b, tr, workers int
		tree                 tslu.Tree
	}{
		{20, 20, 5, 1, 1, tslu.Binary},
		{20, 20, 5, 2, 2, tslu.Binary},
		{64, 64, 8, 4, 4, tslu.Binary},
		{64, 64, 8, 4, 4, tslu.Flat},
		{100, 40, 10, 4, 3, tslu.Binary},
		{200, 24, 8, 8, 4, tslu.Flat},
		{37, 37, 10, 3, 2, tslu.Binary},
		{50, 7, 7, 4, 2, tslu.Binary},
		{30, 30, 1, 2, 2, tslu.Binary},
		{120, 12, 4, 16, 4, tslu.Binary}, // tr clamping inside tsqr.Plan
	}
	for _, tc := range cases {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*5+tc.n*11+tc.b))
		opt := Options{BlockSize: tc.b, PanelThreads: tc.tr, Tree: tc.tree, Workers: tc.workers, Lookahead: true}
		checkCAQR(t, orig, opt)
	}
}

func TestCAQRDeterministicAcrossWorkers(t *testing.T) {
	orig := matrix.Random(80, 40, 21)
	var ref *matrix.Dense
	for _, workers := range []int{1, 2, 4, 8} {
		a := orig.Clone()
		mustCAQR(t, a, Options{BlockSize: 10, PanelThreads: 4, Workers: workers, Lookahead: true})
		if ref == nil {
			ref = a
		} else if !a.Equal(ref) {
			t.Fatalf("workers=%d produced different bits", workers)
		}
	}
}

func TestCAQRMatchesGEQRFRDiag(t *testing.T) {
	// |diag(R)| is unique for a full-rank matrix, so CAQR must agree with
	// the classic blocked QR.
	orig := matrix.Random(60, 30, 22)
	a := orig.Clone()
	res := mustCAQR(t, a, Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true})
	r := res.R()
	ref := orig.Clone()
	tau := make([]float64, 30)
	lapack.GEQRF(ref, tau, 8)
	for i := 0; i < 30; i++ {
		d1, d2 := math.Abs(r.At(i, i)), math.Abs(ref.At(i, i))
		if math.Abs(d1-d2) > 1e-10*(1+d2) {
			t.Fatalf("R diag %d differs: %v vs %v", i, d1, d2)
		}
	}
}

func TestCAQRLeastSquares(t *testing.T) {
	m, n := 150, 12
	a := matrix.Random(m, n, 23)
	xWant := matrix.Random(n, 2, 24)
	rhs := blas.Mul(blas.NoTrans, blas.NoTrans, a, xWant)
	res := mustCAQR(t, a.Clone(), Options{BlockSize: 4, PanelThreads: 4, Workers: 3, Lookahead: true})
	x := res.LeastSquares(rhs)
	if !x.EqualApprox(xWant, 1e-8) {
		t.Fatal("least squares solution wrong")
	}
}

func TestCAQRLeastSquaresInconsistent(t *testing.T) {
	// Overdetermined inconsistent system: the residual must be orthogonal
	// to the column space (normal equations hold).
	m, n := 60, 5
	a := matrix.Random(m, n, 25)
	rhs := matrix.Random(m, 1, 26)
	res := mustCAQR(t, a.Clone(), Options{BlockSize: 5, PanelThreads: 2, Workers: 2, Lookahead: true})
	x := res.LeastSquares(rhs.Clone())
	resid := rhs.Clone()
	blas.Gemm(blas.NoTrans, blas.NoTrans, -1, a, x, 1, resid)
	atr := blas.Mul(blas.Trans, blas.NoTrans, a, resid)
	if atr.MaxAbs() > 1e-10*float64(m) {
		t.Fatalf("A^T r = %g, not orthogonal", atr.MaxAbs())
	}
}

func TestCAQRApplyQTThenQ(t *testing.T) {
	a := matrix.Random(70, 30, 27)
	res := mustCAQR(t, a.Clone(), Options{BlockSize: 10, PanelThreads: 4, Workers: 2, Lookahead: true})
	c := matrix.Random(70, 4, 28)
	orig := c.Clone()
	res.ApplyQT(c)
	res.ApplyQ(c)
	if !c.EqualApprox(orig, 1e-9) {
		t.Fatal("Q Q^T C != C")
	}
}

func TestCAQRTraceEvents(t *testing.T) {
	a := matrix.Random(40, 40, 29)
	res := mustCAQR(t, a, Options{BlockSize: 10, PanelThreads: 2, Workers: 2, Trace: true, Lookahead: true})
	if len(res.Events) != res.Graph.Len() {
		t.Fatalf("%d events for %d tasks", len(res.Events), res.Graph.Len())
	}
}

func TestBuildCAQRGraphMatchesBoundGraph(t *testing.T) {
	opt := Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true}
	g := BuildCAQRGraph(64, 48, opt)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(64, 48, 30)
	res := mustCAQR(t, a, opt)
	if g.Len() != res.Graph.Len() || g.Edges() != res.Graph.Edges() {
		t.Fatalf("graph-only %d tasks/%d edges, bound %d/%d",
			g.Len(), g.Edges(), res.Graph.Len(), res.Graph.Edges())
	}
}

func TestCAQRColsPerTaskEquivalent(t *testing.T) {
	orig := matrix.Random(60, 60, 31)
	var ref *matrix.Dense
	for _, cpt := range []int{1, 2, 5} {
		a := orig.Clone()
		mustCAQR(t, a, Options{BlockSize: 6, PanelThreads: 4, Workers: 3, Lookahead: true, ColsPerTask: cpt})
		if ref == nil {
			ref = a
		} else if !a.EqualApprox(ref, 1e-12) {
			t.Fatalf("ColsPerTask=%d changed the result", cpt)
		}
	}
}

func TestCAQRPropertyGram(t *testing.T) {
	// R^T R == A^T A for every configuration.
	f := func(seed int64, trRaw, bRaw, wRaw, treeRaw uint8) bool {
		m := 30 + int(uint64(seed)%30)
		n := 6 + int(uint64(seed)%10)
		tr := int(trRaw)%6 + 1
		bs := int(bRaw)%8 + 1
		workers := int(wRaw)%4 + 1
		tree := tslu.Tree(int(treeRaw) % 2)
		orig := matrix.Random(m, n, seed)
		a := orig.Clone()
		res := mustCAQR(t, a, Options{BlockSize: bs, PanelThreads: tr, Tree: tree, Workers: workers, Lookahead: true})
		r := res.R()
		ata := blas.Mul(blas.Trans, blas.NoTrans, orig, orig)
		rtr := blas.Mul(blas.Trans, blas.NoTrans, r, r)
		return ata.EqualApprox(rtr, 1e-9*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCAQRHybridTree(t *testing.T) {
	for _, tc := range []struct{ m, n, b, tr, workers int }{
		{64, 64, 8, 4, 4},
		{200, 24, 8, 8, 4},
		{160, 16, 8, 16, 2},
	} {
		orig := matrix.Random(tc.m, tc.n, int64(tc.m*3+tc.n))
		opt := Options{BlockSize: tc.b, PanelThreads: tc.tr, Tree: tslu.Hybrid, Workers: tc.workers, Lookahead: true}
		checkCAQR(t, orig, opt)
	}
}

func TestCAQRWideMatrix(t *testing.T) {
	m, n := 20, 50
	orig := matrix.Random(m, n, 82)
	a := orig.Clone()
	res := mustCAQR(t, a, Options{BlockSize: 5, PanelThreads: 3, Workers: 2, Lookahead: true})
	q := res.ExplicitQ() // m x m
	r := res.R()         // m x n trapezoid
	if q.Cols != m || r.Rows != m || r.Cols != n {
		t.Fatalf("wide QR shapes: Q %dx%d, R %dx%d", q.Rows, q.Cols, r.Rows, r.Cols)
	}
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, q, r)
	if !prod.EqualApprox(orig, 1e-11*float64(n)) {
		t.Fatal("wide CAQR: A != Q*R")
	}
	qtq := blas.Mul(blas.Trans, blas.NoTrans, q, q)
	for i := 0; i < m; i++ {
		qtq.Set(i, i, qtq.At(i, i)-1)
	}
	if qtq.MaxAbs() > 1e-12*float64(m) {
		t.Fatalf("wide CAQR: Q not orthogonal: %g", qtq.MaxAbs())
	}
}

func TestCAQRLeastSquaresWidePanics(t *testing.T) {
	a := matrix.Random(5, 10, 83)
	res := mustCAQR(t, a, Options{BlockSize: 3, PanelThreads: 2, Workers: 1, Lookahead: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for underdetermined LeastSquares")
		}
	}()
	res.LeastSquares(matrix.Random(5, 1, 84))
}

func TestCAQRStructuredTreeMatchesDense(t *testing.T) {
	orig := matrix.Random(120, 60, 95)
	base := Options{BlockSize: 12, PanelThreads: 4, Workers: 3, Lookahead: true}
	a1 := orig.Clone()
	r1 := mustCAQR(t, a1, base)
	st := base
	st.StructuredTree = true
	a2 := orig.Clone()
	r2 := mustCAQR(t, a2, st)
	// Same R (identical reflector mathematics), and both reconstruct A.
	if !r1.R().EqualApprox(r2.R(), 1e-10) {
		t.Fatal("structured tree changed R")
	}
	checkCAQR(t, orig, st)
	// The modeled cost of the structured tree must be lower.
	gd := BuildCAQRGraph(100000, 100, Options{BlockSize: 100, PanelThreads: 8, Lookahead: true})
	gs := BuildCAQRGraph(100000, 100, Options{BlockSize: 100, PanelThreads: 8, Lookahead: true, StructuredTree: true})
	fd, fs := 0.0, 0.0
	for _, task := range gd.Tasks() {
		fd += task.Flops
	}
	for _, task := range gs.Tasks() {
		fs += task.Flops
	}
	if fs >= fd {
		t.Fatalf("structured flops %g not below dense %g", fs, fd)
	}
}

// mustCAQR factors a and fails the test on error; the error-path behavior
// itself is covered by TestCAQRShapeErrors.
func mustCAQR(t testing.TB, a *matrix.Dense, opt Options) *QRResult {
	t.Helper()
	res, err := CAQR(context.Background(), a, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCAQRShapeErrors checks that malformed inputs surface as
// ErrShape-wrapped errors instead of panics.
func TestCAQRShapeErrors(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("validation panicked: %v", p)
		}
	}()
	if _, err := CAQR(context.Background(), nil, Options{}, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("CAQR(nil) = %v, want ErrShape", err)
	}
	if _, err := CAQR(context.Background(), &matrix.Dense{}, Options{}, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("CAQR(empty) = %v, want ErrShape", err)
	}
}
