package core_test

// ABFT verify-mode tests: clean runs must be bit-identical to unverified
// runs with zero false positives; injected silent corruption must be
// detected at a panel boundary and either repaired in place (CALU panel
// recompute) or escalated as ErrCorrupted. These run as an external test
// package so they can drive the factorizations through a sched.Pool with
// the fault injector's post-run corruption hook installed.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/sched"
)

func randDense(rng *rand.Rand, r, c int) *matrix.Dense {
	a := matrix.New(r, c)
	for j := 0; j < c; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return a
}

func verifyOpts(n int) core.Options {
	opt := core.DefaultOptions(n, 4)
	opt.BlockSize = 16
	opt.PanelThreads = 2
	opt.Verify = true
	return opt
}

// solveCheck factors a clone of a with the given pool/options and checks the
// solution of A x = a*ones against ones.
func solveCheck(t *testing.T, a *matrix.Dense, opt core.Options, pool *sched.Pool) *core.LUResult {
	t.Helper()
	n := a.Cols
	xTrue := matrix.New(n, 1)
	for i := 0; i < n; i++ {
		xTrue.Set(i, 0, 1)
	}
	rhs := matrix.New(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += a.At(i, j)
		}
		rhs.Set(i, 0, s)
	}
	res, err := core.CALU(context.Background(), a.Clone(), opt, pool)
	if err != nil {
		t.Fatalf("CALU: %v", err)
	}
	res.Solve(rhs)
	for i := 0; i < n; i++ {
		if d := math.Abs(rhs.At(i, 0) - 1); d > 1e-6 {
			t.Fatalf("solution off at %d by %g", i, d)
		}
	}
	return res
}

// TestCALUVerifyCleanBitIdentical pins the zero-false-positive guarantee:
// verify mode on a clean run must neither flag anything nor perturb the
// factors.
func TestCALUVerifyCleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randDense(rng, 60, 60)
	opt := verifyOpts(60)
	plain := opt
	plain.Verify = false
	r1, err := core.CALU(context.Background(), a.Clone(), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.CALU(context.Background(), a.Clone(), opt, nil)
	if err != nil {
		t.Fatalf("verify mode flagged a clean run: %v", err)
	}
	if len(r2.RecomputedPanels) != 0 {
		t.Fatalf("clean run recomputed panels %v", r2.RecomputedPanels)
	}
	for j := 0; j < 60; j++ {
		c1, c2 := r1.A.Col(j), r2.A.Col(j)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("factors differ at (%d,%d): %g vs %g", i, j, c1[i], c2[i])
			}
		}
	}
}

// TestCAQRVerifyCleanBitIdentical is the QR analogue.
func TestCAQRVerifyCleanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randDense(rng, 80, 48)
	opt := verifyOpts(48)
	plain := opt
	plain.Verify = false
	r1, err := core.CAQR(context.Background(), a.Clone(), plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.CAQR(context.Background(), a.Clone(), opt, nil)
	if err != nil {
		t.Fatalf("verify mode flagged a clean run: %v", err)
	}
	for j := 0; j < 48; j++ {
		c1, c2 := r1.A.Col(j), r2.A.Col(j)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("factors differ at (%d,%d)", i, j)
			}
		}
	}
}

// TestCALUVerifyWideClean covers the wide-matrix recursion with verify on.
func TestCALUVerifyWideClean(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randDense(rng, 40, 70)
	opt := verifyOpts(40)
	if _, err := core.CALU(context.Background(), a, opt, nil); err != nil {
		t.Fatalf("wide verify run failed: %v", err)
	}
}

// TestCALUVerifyRecoversTournamentCorruption injects a bit flip into one
// tournament leaf's candidate rows. The finalize checksum must catch it and
// recompute the panel from its pristine source, yielding a still-correct
// factorization and recording the panel.
func TestCALUVerifyRecoversTournamentCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randDense(rng, 60, 60)
	opt := verifyOpts(60)
	var detected, recomputed int
	opt.OnCorruption = func(int) { detected++ }
	opt.OnPanelRecompute = func(int) { recomputed++ }

	pool := sched.NewPool(4)
	defer pool.Close()
	// Perturb (rather than a bit flip) guarantees the corrupted candidate row
	// is huge, wins its tournament and lands in the panel factor.
	inj := fault.New(1, fault.Rule{Kind: fault.Corrupt, Match: "P k=1 leaf=0", Rate: 1, Count: 1, Perturb: 1e6})
	pool.SetPostInterceptor(inj.InterceptPost)

	res := solveCheck(t, a, opt, pool)
	if got := inj.Injected(fault.Corrupt); got != 1 {
		t.Fatalf("injected %d corruptions, want 1", got)
	}
	if detected != 1 || recomputed != 1 {
		t.Fatalf("detected=%d recomputed=%d, want 1/1", detected, recomputed)
	}
	if len(res.RecomputedPanels) != 1 || res.RecomputedPanels[0] != 1 {
		t.Fatalf("RecomputedPanels = %v, want [1]", res.RecomputedPanels)
	}
	// The recompute must be visible in the trace labels.
	found := false
	for _, tk := range res.Graph.Tasks() {
		if tk.Label == "F k=1 [abft-recompute]" {
			found = true
		}
	}
	if !found {
		t.Fatal("no [abft-recompute] label in the executed graph")
	}
}

// TestCALUVerifyEscalatesUpdateCorruption injects a bit flip into a trailing
// update's output. There is no pristine source to recompute from, so the
// column checksum must escalate to ErrCorrupted.
func TestCALUVerifyEscalatesUpdateCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randDense(rng, 60, 60)
	opt := verifyOpts(60)

	pool := sched.NewPool(4)
	defer pool.Close()
	inj := fault.New(2, fault.Rule{Kind: fault.Corrupt, Match: "S k=0 i=0 j=2", Rate: 1, Count: 1})
	pool.SetPostInterceptor(inj.InterceptPost)

	_, err := core.CALU(context.Background(), a.Clone(), opt, pool)
	if got := inj.Injected(fault.Corrupt); got != 1 {
		t.Fatalf("injected %d corruptions, want 1", got)
	}
	if !errors.Is(err, core.ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

// TestCAQRVerifyEscalatesCorruption: QR panels are factored in place, so
// any detected corruption escalates.
func TestCAQRVerifyEscalatesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := randDense(rng, 64, 48)
	opt := verifyOpts(48)

	for _, match := range []string{"P k=0 leaf=1", "S k=0 leaf=0 j=1"} {
		pool := sched.NewPool(4)
		inj := fault.New(3, fault.Rule{Kind: fault.Corrupt, Match: match, Rate: 1, Count: 1})
		pool.SetPostInterceptor(inj.InterceptPost)
		_, err := core.CAQR(context.Background(), a.Clone(), opt, pool)
		pool.Close()
		if got := inj.Injected(fault.Corrupt); got != 1 {
			t.Fatalf("%s: injected %d corruptions, want 1", match, got)
		}
		if !errors.Is(err, core.ErrCorrupted) {
			t.Fatalf("%s: err = %v, want ErrCorrupted", match, err)
		}
	}
}

// TestCALUVerifySingularNotMasked: a genuinely singular input must surface
// as ErrSingular even with verify on — the checksum chain goes inert rather
// than converting a permanent error into a retryable one.
func TestCALUVerifySingularNotMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := randDense(rng, 48, 48)
	// Zero out panel 1's columns: they stay exactly zero through the trailing
	// updates, so panel 1 is rank deficient while the rest of the matrix
	// exercises the live checksum chain around the poisoned panel.
	for j := 16; j < 32; j++ {
		clear(a.Col(j))
	}
	opt := verifyOpts(48)
	_, err := core.CALU(context.Background(), a, opt, nil)
	if !errors.Is(err, core.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if errors.Is(err, core.ErrCorrupted) {
		t.Fatalf("singular input misreported as corruption: %v", err)
	}
}

// TestCALUVerifyBudgetExhausted: with local recovery disabled every
// detection escalates immediately.
func TestCALUVerifyBudgetExhausted(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := randDense(rng, 60, 60)
	opt := verifyOpts(60)
	opt.MaxPanelRecomputes = -1

	pool := sched.NewPool(4)
	defer pool.Close()
	inj := fault.New(1, fault.Rule{Kind: fault.Corrupt, Match: "P k=1 leaf=0", Rate: 1, Count: 1, Perturb: 1e6})
	pool.SetPostInterceptor(inj.InterceptPost)

	_, err := core.CALU(context.Background(), a.Clone(), opt, pool)
	if !errors.Is(err, core.ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}
