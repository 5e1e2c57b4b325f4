package factor_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/factor"
)

func TestCtxPreCancelledNeverPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	a := factor.Random(80, 40, 1)
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	defer eng.Close()
	if lu, err := eng.LUCtx(ctx, a, factor.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.LUCtx = %v, want context.Canceled", err)
	} else if lu != nil {
		t.Fatal("Engine.LUCtx returned a partial result with an error")
	}
	if qr, err := eng.QRCtx(ctx, a, factor.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Engine.QRCtx = %v, want context.Canceled", err)
	} else if qr != nil {
		t.Fatal("Engine.QRCtx returned a partial result with an error")
	}
}

func TestEngineCtxDeadlineExpired(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	defer eng.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := eng.LUCtx(ctx, factor.Random(60, 30, 2), factor.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Engine.LUCtx = %v, want context.DeadlineExceeded", err)
	}
}

// TestEngineCancelOneOfManyConcurrent is the -race acceptance stress test:
// a cancelled submission must return a wrapped context error (never a
// partial result), while a concurrent uncancelled submission on the same
// pool completes bit-identically to a one-shot run.
func TestEngineCancelOneOfManyConcurrent(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 4})
	defer eng.Close()
	opt := factor.Options{BlockSize: 8, PanelThreads: 2}

	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup

		wg.Add(1)
		go func() { // victim: cancelled mid-run (or rejected, if cancel wins the race)
			defer wg.Done()
			victim := factor.Random(300, 120, int64(round))
			lu, err := eng.LUCtx(ctx, victim, opt)
			if err == nil {
				// The factorization legitimately finished before the cancel
				// landed; the result must then be fully valid.
				if lu == nil || lu.Factors() == nil {
					t.Error("nil result without error")
				}
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled LUCtx = %v, want context.Canceled", err)
			}
			if lu != nil {
				t.Error("cancelled LUCtx returned a partial result")
			}
		}()

		wg.Add(1)
		go func() { // healthy: must be unaffected by the neighbour's cancel
			defer wg.Done()
			orig := factor.Random(150, 60, int64(100+round))
			oneShot, shared := orig.Clone(), orig.Clone()
			if _, err := factor.LU(oneShot, opt); err != nil {
				t.Errorf("one-shot LU: %v", err)
				return
			}
			if _, err := eng.LUCtx(context.Background(), shared, opt); err != nil {
				t.Errorf("healthy engine LU: %v", err)
				return
			}
			if !oneShot.Equal(shared) {
				t.Error("healthy submission's factors differ from one-shot")
			}
		}()

		time.Sleep(time.Duration(round) * time.Millisecond)
		cancel()
		wg.Wait()
	}
}

func TestEngineCloseWithTimeout(t *testing.T) {
	// Clean path: nothing in flight, CloseWithTimeout returns nil.
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	if _, err := eng.LUCtx(context.Background(), factor.Random(40, 20, 1), factor.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseWithTimeout(time.Second); err != nil {
		t.Fatalf("idle CloseWithTimeout = %v, want nil", err)
	}
	if _, err := eng.LUCtx(context.Background(), factor.Random(40, 20, 2), factor.Options{}); !errors.Is(err, factor.ErrEngineClosed) {
		t.Fatalf("LU after CloseWithTimeout = %v, want ErrEngineClosed", err)
	}

	// Cancel path: a large in-flight factorization cannot drain within the
	// timeout, so it must come back with a wrapped DeadlineExceeded (or, if
	// this machine is fast enough to finish first, a clean close).
	eng2 := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	started := make(chan struct{})
	result := make(chan error, 1)
	go func() {
		close(started)
		_, err := eng2.LUCtx(context.Background(), factor.Random(1200, 600, 3), factor.Options{BlockSize: 32})
		result <- err
	}()
	<-started
	time.Sleep(2 * time.Millisecond) // let the submission reach the pool
	closeErr := eng2.CloseWithTimeout(time.Millisecond)
	luErr := <-result
	if closeErr == nil {
		// Clean drain: the LU either finished first, or had not yet
		// submitted when the pool closed and was rejected outright.
		if luErr != nil && !errors.Is(luErr, factor.ErrEngineClosed) {
			t.Fatalf("clean close but in-flight LU failed: %v", luErr)
		}
	} else {
		if !errors.Is(closeErr, context.DeadlineExceeded) {
			t.Fatalf("CloseWithTimeout = %v, want context.DeadlineExceeded", closeErr)
		}
		if luErr != nil && !errors.Is(luErr, context.DeadlineExceeded) && !errors.Is(luErr, factor.ErrEngineClosed) {
			t.Fatalf("in-flight LU after timed-out close = %v, want DeadlineExceeded or ErrEngineClosed", luErr)
		}
	}
}
