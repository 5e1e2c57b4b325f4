package factor

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// chaosVerify factors a fresh copy of a known system on eng and checks the
// solve, proving the engine is healthy after whatever the test injected.
func chaosVerify(t *testing.T, eng *Engine) {
	t.Helper()
	const n = 24
	orig := Random(n, n, 99)
	xWant := Random(n, 1, 100)
	rhs := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * xWant.At(j, 0)
		}
		rhs.Set(i, 0, s)
	}
	lu, err := eng.LUCtx(context.Background(), orig.Clone(), Options{BlockSize: 6})
	if err != nil {
		t.Fatalf("engine unusable after chaos: %v", err)
	}
	lu.Solve(rhs)
	for i := 0; i < n; i++ {
		if d := rhs.At(i, 0) - xWant.At(i, 0); d > 1e-8 || d < -1e-8 {
			t.Fatalf("solve after chaos off by %g at row %d", d, i)
		}
	}
}

// TestChaosPanicRetrySucceeds is the acceptance scenario: two injected
// task panics, an engine with retries — the request must succeed via
// retry, the pool must survive, and the engine must serve the next
// request cleanly.
func TestChaosPanicRetrySucceeds(t *testing.T) {
	// Both panics hit the first leaf of the first panel, which every
	// attempt runs, so each attempt fails on exactly one panic. Without
	// the Match, two leaves dispatched together could both panic inside one
	// attempt, and the retry count would depend on worker timing.
	inj := fault.New(17, fault.Rule{Kind: fault.Panic, Rate: 1, Count: 2, Match: "P k=0 leaf=0"})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 4, MaxRetries: 3, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	a := Random(40, 40, 1)
	if _, err := eng.LUCtx(context.Background(), a, Options{BlockSize: 8}); err != nil {
		t.Fatalf("LU with retries: %v", err)
	}
	if got := inj.Injected(fault.Panic); got != 2 {
		t.Fatalf("injected %d panics, want 2", got)
	}
	if st := eng.Stats(); st.Retries != 2 {
		t.Fatalf("Stats.Retries = %d, want 2", st.Retries)
	}
	chaosVerify(t, eng)
}

// TestChaosPanicNoRetriesTyped checks the other half of the contract:
// without retries the injected panic surfaces as a typed error —
// errors.Is finds the injected sentinel through the panic-to-error
// recovery — and the engine stays usable.
func TestChaosPanicNoRetriesTyped(t *testing.T) {
	inj := fault.New(17, fault.Rule{Kind: fault.Panic, Rate: 1, Count: 1})
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, Interceptor: inj.Intercept})
	defer eng.Close()
	_, err := eng.LUCtx(context.Background(), Random(30, 30, 2), Options{BlockSize: 6})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	chaosVerify(t, eng)
}

// TestChaosSpuriousErrorRetried injects a one-shot spurious task error and
// checks it is classified transient and healed by a single retry.
func TestChaosSpuriousErrorRetried(t *testing.T) {
	inj := fault.New(5, fault.Rule{Kind: fault.Error, Match: "U k=", Rate: 1, Count: 1})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, MaxRetries: 1, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	if _, err := eng.LUCtx(context.Background(), Random(40, 40, 3), Options{BlockSize: 8}); err != nil {
		t.Fatalf("LU: %v", err)
	}
	if st := eng.Stats(); st.Retries != 1 {
		t.Fatalf("Stats.Retries = %d, want 1", st.Retries)
	}
	chaosVerify(t, eng)
}

// TestChaosStallWatchdog wedges the engine's only worker with an injected
// delay much longer than the stall timeout and checks the watchdog
// converts the silent stall into a typed ErrStalled failure, counts it,
// and leaves the engine serving.
func TestChaosStallWatchdog(t *testing.T) {
	inj := fault.New(9, fault.Rule{Kind: fault.Delay, Rate: 1, Count: 1, Delay: 200 * time.Millisecond})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 1, StallTimeout: 25 * time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	_, err := eng.LUCtx(context.Background(), Random(30, 30, 4), Options{BlockSize: 6})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want wrapped ErrStalled", err)
	}
	if st := eng.Stats(); st.Stalled != 1 {
		t.Fatalf("Stats.Stalled = %d, want 1", st.Stalled)
	}
	chaosVerify(t, eng)
}

// TestChaosStallRetried is the self-healing composition: the stall is
// transient (the delay rule is one-shot), so a retrying engine recovers
// from it without caller involvement.
func TestChaosStallRetried(t *testing.T) {
	inj := fault.New(9, fault.Rule{Kind: fault.Delay, Rate: 1, Count: 1, Delay: 200 * time.Millisecond})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 1, StallTimeout: 25 * time.Millisecond,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	if _, err := eng.LUCtx(context.Background(), Random(30, 30, 4), Options{BlockSize: 6}); err != nil {
		t.Fatalf("LU with stall retry: %v", err)
	}
	st := eng.Stats()
	if st.Stalled < 1 || st.Retries < 1 {
		t.Fatalf("Stats = %+v, want at least one stall and one retry", st)
	}
	chaosVerify(t, eng)
}

// TestChaosCancelOnceNotRetried models an external cancellation landing
// mid-factorization: the caller's context is cancelled by the injector,
// and the engine must NOT retry — the caller asked to stop.
func TestChaosCancelOnceNotRetried(t *testing.T) {
	// The per-task delay keeps yield points in the schedule so the pool's
	// cancellation watcher gets the (possibly single) CPU even when the
	// numeric tasks alone would drain the graph without ever blocking.
	inj := fault.New(3,
		fault.Rule{Kind: fault.CancelOnce, Match: "S ", Rate: 1},
		fault.Rule{Kind: fault.Delay, Match: "S ", Rate: 1, Delay: 500 * time.Microsecond},
	)
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, MaxRetries: 3, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj.OnCancel(cancel)
	_, err := eng.LUCtx(ctx, Random(96, 96, 5), Options{BlockSize: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want wrapped ErrCancelled", err)
	}
	if st := eng.Stats(); st.Retries != 0 {
		t.Fatalf("Stats.Retries = %d, caller cancellation must not be retried", st.Retries)
	}
	chaosVerify(t, eng)
}

// TestChaosOverloadSheds checks admission control: with one slot occupied
// by a request blocked inside the pool, the next request is shed
// immediately with ErrOverloaded, and the slot frees once the first
// completes.
func TestChaosOverloadSheds(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, MaxInFlight: 1,
		Interceptor: func(info TaskInfo) error {
			// Block the first request's first task until the gate opens.
			<-gate
			return nil
		},
	})
	defer eng.Close()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- errors.New("first request panicked")
			}
		}()
		_, err := eng.LUCtx(context.Background(), Random(20, 20, 6), Options{BlockSize: 5})
		done <- err
	}()
	// Wait for the first request to occupy the slot.
	for i := 0; eng.Stats().InFlight == 0; i++ {
		if i > 2000 {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := eng.LUCtx(context.Background(), Random(20, 20, 7), Options{BlockSize: 5})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request err = %v, want ErrOverloaded", err)
	}
	if st := eng.Stats(); st.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", st.Shed)
	}
	once.Do(func() { close(gate) })
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
	chaosVerify(t, eng)
}

// TestChaosConcurrentMixed drives concurrent LU and QR requests through an
// engine with low-rate panic and error injection under the race detector:
// every request must either succeed (via retry) or fail with a typed,
// recognisable error; the engine must survive all of it.
func TestChaosConcurrentMixed(t *testing.T) {
	inj := fault.New(23,
		fault.Rule{Kind: fault.Panic, Match: "S ", Rate: 0.05},
		fault.Rule{Kind: fault.Error, Match: "U ", Rate: 0.05},
	)
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 4, MaxRetries: 4, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	const requests = 12
	errs := make(chan error, requests)
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					errs <- errors.New("request goroutine panicked")
				}
				wg.Done()
			}()
			opt := Options{BlockSize: 8}
			var err error
			if r%2 == 0 {
				_, err = eng.LUCtx(context.Background(), Random(48, 48, int64(r)), opt)
			} else {
				_, err = eng.QRCtx(context.Background(), Random(48, 32, int64(r)), opt)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("request failed untyped: %v", err)
		}
	}
	chaosVerify(t, eng)
}

// luSolveCheck verifies a factorization of orig by solving against a known
// solution — the ground truth a corruption campaign measures recovery by.
func luSolveCheck(t *testing.T, orig *Matrix, lu *LUFactorization) {
	t.Helper()
	n := orig.Cols
	xWant := Random(n, 1, 77)
	rhs := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += orig.At(i, j) * xWant.At(j, 0)
		}
		rhs.Set(i, 0, s)
	}
	lu.Solve(rhs)
	for i := 0; i < n; i++ {
		if d := rhs.At(i, 0) - xWant.At(i, 0); d > 1e-7 || d < -1e-7 {
			t.Fatalf("recovered solve off by %g at row %d", d, i)
		}
	}
}

// TestChaosCorruptionCampaignLU seeds one guaranteed-consequential
// corruption (a large perturbation) into each LU task class in turn and
// requires the verified engine to detect every single one and heal it —
// locally (panel recompute) or by full retry — ending with a correct
// factorization. 100% detection, 100% recovery.
func TestChaosCorruptionCampaignLU(t *testing.T) {
	targets := []string{"P k=", "F k=", "L k=", "U k=", "S k="}
	for _, target := range targets {
		t.Run(strings.TrimSuffix(target, " k="), func(t *testing.T) {
			inj := fault.New(31, fault.Rule{Kind: fault.Corrupt, Match: target, Rate: 1, Count: 1, Perturb: 1e6})
			eng := NewEngineWithConfig(EngineConfig{
				Workers: 4, MaxRetries: 3, RetryBackoff: time.Millisecond,
				PostInterceptor: inj.InterceptPost,
			})
			defer eng.Close()
			orig := Random(64, 64, 41)
			lu, err := eng.LUCtx(context.Background(), orig.Clone(), Options{BlockSize: 16, PanelThreads: 2, Verify: true})
			if err != nil {
				t.Fatalf("corrupted %q not healed: %v", target, err)
			}
			if got := inj.Injected(fault.Corrupt); got != 1 {
				t.Fatalf("injected %d corruptions for %q, want 1", got, target)
			}
			st := eng.Stats()
			if st.CorruptionsDetected == 0 {
				t.Fatalf("corruption in %q went undetected: %+v", target, st)
			}
			luSolveCheck(t, orig, lu)
			chaosVerify(t, eng)
		})
	}
}

// TestChaosCorruptionCampaignQR is the QR campaign: QR panels are factored
// in place, so every detection escalates to a full retry — which must heal
// the request to a result identical to a clean run's.
func TestChaosCorruptionCampaignQR(t *testing.T) {
	clean, err := QR(Random(64, 32, 43), Options{BlockSize: 16, PanelThreads: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cleanR := clean.R()
	targets := []string{"P k=0 leaf", "P k=0 tree", "S k=0 leaf", "S k=0 tree"}
	for _, target := range targets {
		t.Run(strings.ReplaceAll(target, " ", "_"), func(t *testing.T) {
			inj := fault.New(37, fault.Rule{Kind: fault.Corrupt, Match: target, Rate: 1, Count: 1, Perturb: 1e6})
			eng := NewEngineWithConfig(EngineConfig{
				Workers: 4, MaxRetries: 3, RetryBackoff: time.Millisecond,
				PostInterceptor: inj.InterceptPost,
			})
			defer eng.Close()
			qr, err := eng.QRCtx(context.Background(), Random(64, 32, 43), Options{BlockSize: 16, PanelThreads: 4, Verify: true})
			if err != nil {
				t.Fatalf("corrupted %q not healed: %v", target, err)
			}
			if got := inj.Injected(fault.Corrupt); got != 1 {
				t.Fatalf("injected %d corruptions for %q, want 1", got, target)
			}
			st := eng.Stats()
			if st.CorruptionsDetected == 0 || st.VerifyFailRetries == 0 {
				t.Fatalf("QR corruption in %q not detected+retried: %+v", target, st)
			}
			if !qr.R().EqualApprox(cleanR, 0) {
				t.Fatalf("healed R differs from clean run for %q", target)
			}
			chaosVerify(t, eng)
		})
	}
}

// TestChaosCorruptionBitFlips is the silent-data-corruption sweep with
// realistic faults: single bit flips (exponent bit 62) across task outputs
// and seeds. A flip either perturbs data that reaches the result — then it
// MUST be detected and healed — or dies in a lost tournament candidate.
// Either way the final factors must be identical to a clean run's: no
// silent corruption, ever.
func TestChaosCorruptionBitFlips(t *testing.T) {
	orig := Random(64, 64, 53)
	clean, err := LU(orig.Clone(), Options{BlockSize: 16, PanelThreads: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cleanFac := clean.Factors()
	for _, target := range []string{"P k=", "L k=", "S k="} {
		for seed := int64(1); seed <= 3; seed++ {
			inj := fault.New(seed, fault.Rule{Kind: fault.Corrupt, Match: target, Rate: 1, Count: 1})
			eng := NewEngineWithConfig(EngineConfig{
				Workers: 4, MaxRetries: 3, RetryBackoff: time.Millisecond,
				PostInterceptor: inj.InterceptPost,
			})
			lu, err := eng.LUCtx(context.Background(), orig.Clone(), Options{BlockSize: 16, PanelThreads: 2, Verify: true})
			if err != nil {
				t.Fatalf("bit flip in %q seed %d not healed: %v", target, seed, err)
			}
			if got := inj.Injected(fault.Corrupt); got != 1 {
				t.Fatalf("injected %d bit flips for %q seed %d, want 1", got, target, seed)
			}
			// A locally recomputed panel legitimately carries GEPP pivots
			// instead of tournament pivots, so bit-identity with the clean
			// run is only required when nothing was repaired; a repaired
			// factorization must still solve correctly.
			if eng.Stats().PanelsRecomputed == 0 && !lu.Factors().EqualApprox(cleanFac, 0) {
				t.Fatalf("factors differ from clean run after bit flip in %q seed %d (undetected corruption shipped)", target, seed)
			}
			luSolveCheck(t, orig, lu)
			eng.Close()
		}
	}
}

// TestChaosVerifyNoFalsePositives reruns the concurrent mixed chaos
// workload — panics and spurious errors, NO data corruption — with
// checksum verification armed on every request: nothing may be flagged as
// corrupted, and the healing behavior must be unchanged.
func TestChaosVerifyNoFalsePositives(t *testing.T) {
	inj := fault.New(23,
		fault.Rule{Kind: fault.Panic, Match: "S ", Rate: 0.05},
		fault.Rule{Kind: fault.Error, Match: "U ", Rate: 0.05},
	)
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 4, MaxRetries: 4, RetryBackoff: time.Millisecond,
		Interceptor: inj.Intercept,
	})
	defer eng.Close()
	const requests = 12
	errs := make(chan error, requests)
	var wg sync.WaitGroup
	for r := 0; r < requests; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					errs <- errors.New("request goroutine panicked")
				}
				wg.Done()
			}()
			opt := Options{BlockSize: 8, Verify: true}
			var err error
			if r%2 == 0 {
				_, err = eng.LUCtx(context.Background(), Random(48, 48, int64(r)), opt)
			} else {
				_, err = eng.QRCtx(context.Background(), Random(48, 32, int64(r)), opt)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, fault.ErrInjected) {
			t.Errorf("request failed untyped under verify: %v", err)
		}
	}
	st := eng.Stats()
	if st.CorruptionsDetected != 0 || st.PanelsRecomputed != 0 || st.VerifyFailRetries != 0 {
		t.Fatalf("verify flagged false positives on clean data: %+v", st)
	}
	chaosVerify(t, eng)
}

// TestChaosCacheIntegrity corrupts a resident result-cache entry in place
// (memory rot in exactly the bytes a hit would serve) and checks the next
// hit detects the mismatch, evicts the entry, refactors, and counts it.
func TestChaosCacheIntegrity(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 8})
	defer eng.Close()
	a := Random(24, 24, 61)
	opt := Options{BlockSize: 8}

	f1, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil || hit {
		t.Fatalf("first cached request: hit=%v err=%v", hit, err)
	}
	if _, hit, err = eng.LUCachedCtx(context.Background(), a, opt); err != nil || !hit {
		t.Fatalf("second cached request: hit=%v err=%v", hit, err)
	}

	// Rot one bit of the resident factors through the shared handle.
	f1.Factors().Data[5] += 1e-3

	f3, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("request after cache rot: %v", err)
	}
	if hit {
		t.Fatal("corrupted cache entry served as a hit")
	}
	st := eng.Stats()
	if st.CacheIntegrityEvictions != 1 {
		t.Fatalf("Stats.CacheIntegrityEvictions = %d, want 1", st.CacheIntegrityEvictions)
	}
	luSolveCheck(t, a, f3)

	// The refilled entry serves hits again.
	if _, hit, err = eng.LUCachedCtx(context.Background(), a, opt); err != nil || !hit {
		t.Fatalf("request after refill: hit=%v err=%v", hit, err)
	}
	chaosVerify(t, eng)
}
