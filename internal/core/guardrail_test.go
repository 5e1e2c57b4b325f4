package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// TestNonFiniteRejected checks the pre-factorization scan: a single NaN or
// Inf anywhere fails fast with ErrNonFinite, before any task runs.
func TestNonFiniteRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := matrix.Random(20, 20, 3)
		a.Set(13, 7, bad)
		if _, err := CALU(context.Background(), a, Options{BlockSize: 5}, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CALU with %v entry: err = %v, want ErrNonFinite", bad, err)
		}
		if _, err := CAQR(context.Background(), a, Options{BlockSize: 5}, nil); !errors.Is(err, ErrNonFinite) {
			t.Errorf("CAQR with %v entry: err = %v, want ErrNonFinite", bad, err)
		}
	}
	// The wide (m < n) recursion paths scan before recursing.
	wide := matrix.Random(10, 30, 4)
	wide.Set(2, 25, math.NaN()) // in the right block, outside the factored square
	if _, err := CALU(context.Background(), wide.Clone(), Options{BlockSize: 5}, nil); !errors.Is(err, ErrNonFinite) {
		t.Errorf("wide CALU: err = %v, want ErrNonFinite", err)
	}
	if _, err := CAQR(context.Background(), wide.Clone(), Options{BlockSize: 5}, nil); !errors.Is(err, ErrNonFinite) {
		t.Errorf("wide CAQR: err = %v, want ErrNonFinite", err)
	}
}

// TestGuardrailForcedFallbackMatchesGETRF forces the guardrail on every
// panel (threshold far below any real growth) and checks that CALU then
// degenerates to blocked GEPP: same permutation as GETRF with the same
// block size, same factor within stability tolerances, and every panel
// recorded in FallbackPanels.
func TestGuardrailForcedFallbackMatchesGETRF(t *testing.T) {
	const n, b = 60, 10
	orig := matrix.Random(n, n, 21)
	a := orig.Clone()
	res, err := CALU(context.Background(), a, Options{
		BlockSize: b, PanelThreads: 4, Workers: 3, Lookahead: true,
		GrowthThreshold: 1e-9,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := n / b; len(res.FallbackPanels) != want {
		t.Fatalf("FallbackPanels = %v, want all %d panels", res.FallbackPanels, want)
	}
	for k, p := range res.FallbackPanels {
		if p != k {
			t.Fatalf("FallbackPanels = %v, want ascending 0..%d", res.FallbackPanels, n/b-1)
		}
	}
	ref := orig.Clone()
	ipiv := make([]int, n)
	if err := lapack.GETRF(ref, ipiv, b); err != nil {
		t.Fatal(err)
	}
	lab1 := matrix.New(n, 1)
	for i := 0; i < n; i++ {
		lab1.Set(i, 0, float64(i))
	}
	lab2 := lab1.Clone()
	res.ApplyPerm(lab1)
	lapack.LASWP(lab2, ipiv, 0, n)
	if !lab1.Equal(lab2) {
		t.Fatal("forced-fallback permutation differs from GETRF")
	}
	if !a.EqualApprox(ref, 1e-10) {
		t.Fatal("forced-fallback factor differs from GETRF")
	}
}

// TestGuardrailQuietOnBenignMatrix checks both off states: threshold zero
// disables the monitor, and a generous threshold never trips on a random
// (well-conditioned in growth terms) matrix — the factorization is the
// plain tournament one.
func TestGuardrailQuietOnBenignMatrix(t *testing.T) {
	orig := matrix.Random(48, 48, 8)
	plain := orig.Clone()
	if _, err := CALU(context.Background(), plain, Options{BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true}, nil); err != nil {
		t.Fatal(err)
	}
	for _, thr := range []float64{0, 1e6} {
		a := orig.Clone()
		res, err := CALU(context.Background(), a, Options{
			BlockSize: 8, PanelThreads: 4, Workers: 2, Lookahead: true,
			GrowthThreshold: thr,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FallbackPanels) != 0 {
			t.Fatalf("threshold %g: unexpected fallbacks %v", thr, res.FallbackPanels)
		}
		if !a.Equal(plain) {
			t.Fatalf("threshold %g: armed-but-quiet guardrail changed the factor", thr)
		}
	}
}

// wilkinson builds the classic GEPP worst case: unit diagonal, -1 strictly
// below it, +1 in the last column. Element growth under partial pivoting is
// 2^(n-1), so the first panel's U alone exhibits 2^(b-1) growth while
// max|A| = 1 — a crafted trigger for any reasonable threshold.
func wilkinson(n int) *matrix.Dense {
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		a.Set(i, n-1, 1)
		for j := 0; j < i; j++ {
			a.Set(i, j, -1)
		}
	}
	return a
}

// TestGuardrailTripsOnHighGrowth checks the acceptance scenario end to end:
// a crafted high-growth matrix trips the monitor at a moderate threshold,
// the fallback panel is observable both in FallbackPanels and in the task
// trace (the finalize task's label carries the gepp-fallback marker), and
// the factorization still solves to GEPP-level accuracy.
func TestGuardrailTripsOnHighGrowth(t *testing.T) {
	const n, b = 32, 8
	orig := wilkinson(n)
	a := orig.Clone()
	res, err := CALU(context.Background(), a, Options{
		BlockSize: b, PanelThreads: 2, Workers: 2, Lookahead: true,
		GrowthThreshold: 4, Trace: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FallbackPanels) == 0 {
		t.Fatal("high-growth matrix tripped no fallback")
	}
	marked := 0
	for _, task := range res.Graph.Tasks() {
		if task.Kind == sched.KindP && strings.Contains(task.Label, "[gepp-fallback]") {
			marked++
		}
	}
	if marked != len(res.FallbackPanels) {
		t.Fatalf("%d tasks carry the fallback marker, want %d", marked, len(res.FallbackPanels))
	}
	if len(res.Events) == 0 {
		t.Fatal("Trace produced no events")
	}
	// Residual check: P*A = L*U still holds (growth 2^(n-1) is inherent to
	// partial pivoting on this matrix, but the factorization must stay
	// exact in the backward sense, scaled by max|U| rather than max|A|).
	l, u := lapack.ExtractLU(a)
	prod := blas.Mul(blas.NoTrans, blas.NoTrans, l, u)
	pa := orig.Clone()
	res.ApplyPerm(pa)
	diff := 0.0
	for j := 0; j < n; j++ {
		x, y := pa.Col(j), prod.Col(j)
		for i := range x {
			diff = math.Max(diff, math.Abs(x[i]-y[i]))
		}
	}
	if diff > 1e-10*math.Pow(2, n-1) {
		t.Fatalf("fallback factorization residual %g", diff)
	}
}
