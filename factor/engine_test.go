package factor_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/factor"
)

// TestEngineConcurrentMixedSubmissions drives one shared engine with
// concurrent LU and QR requests (6 submissions on a 4-worker pool) and
// checks every result bit-identical to the corresponding one-shot call:
// interleaving submissions on shared workers must not change a single bit
// of the factors.
func TestEngineConcurrentMixedSubmissions(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 4})
	defer eng.Close()
	opt := factor.Options{BlockSize: 8, PanelThreads: 2}

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(2)
		go func() { // LU request
			defer wg.Done()
			orig := factor.Random(90+7*i, 40, int64(i+1))
			oneShot, shared := orig.Clone(), orig.Clone()
			want, err := factor.LU(oneShot, opt)
			if err != nil {
				t.Errorf("one-shot LU %d: %v", i, err)
				return
			}
			got, err := eng.LUCtx(context.Background(), shared, opt)
			if err != nil {
				t.Errorf("engine LU %d: %v", i, err)
				return
			}
			if !oneShot.Equal(shared) {
				t.Errorf("LU %d: engine factors differ from one-shot", i)
			}
			wp, gp := want.PermutationVector(), got.PermutationVector()
			for r := range wp {
				if wp[r] != gp[r] {
					t.Errorf("LU %d: permutation differs at row %d", i, r)
					return
				}
			}
		}()
		go func() { // QR request
			defer wg.Done()
			orig := factor.Random(100+11*i, 30, int64(100+i))
			oneShot, shared := orig.Clone(), orig.Clone()
			if _, err := factor.QR(oneShot, opt); err != nil {
				t.Errorf("one-shot QR %d: %v", i, err)
				return
			}
			if _, err := eng.QRCtx(context.Background(), shared, opt); err != nil {
				t.Errorf("engine QR %d: %v", i, err)
				return
			}
			if !oneShot.Equal(shared) {
				t.Errorf("QR %d: engine factors differ from one-shot", i)
			}
		}()
	}
	wg.Wait()
}

func TestEngineReuseAcrossManyCalls(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	defer eng.Close()
	for i := 0; i < 10; i++ {
		a := factor.Random(40, 20, int64(i))
		if _, err := eng.LUCtx(context.Background(), a, factor.Options{BlockSize: 5}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestEngineClosed(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 2})
	eng.Close()
	eng.Close() // idempotent
	a := factor.Random(20, 10, 1)
	if _, err := eng.LUCtx(context.Background(), a, factor.Options{}); !errors.Is(err, factor.ErrEngineClosed) {
		t.Fatalf("LU on closed engine = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.QRCtx(context.Background(), a, factor.Options{}); !errors.Is(err, factor.ErrEngineClosed) {
		t.Fatalf("QR on closed engine = %v, want ErrEngineClosed", err)
	}
}

func TestEngineWorkersDefault(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 0})
	defer eng.Close()
	if eng.Workers() < 1 {
		t.Fatalf("Workers() = %d", eng.Workers())
	}
	eng3 := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 3})
	defer eng3.Close()
	if eng3.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", eng3.Workers())
	}
}

// TestQRShapeError checks the error contract: malformed inputs come back as
// ErrShape-wrapped errors from both the one-shot and the engine paths, and
// no validation panic escapes the package.
func TestQRShapeError(t *testing.T) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("validation panicked: %v", p)
		}
	}()
	if _, err := factor.QR(nil, factor.Options{}); !errors.Is(err, factor.ErrShape) {
		t.Fatalf("QR(nil) = %v, want ErrShape", err)
	}
	empty := &factor.Matrix{}
	if _, err := factor.QR(empty, factor.Options{}); !errors.Is(err, factor.ErrShape) {
		t.Fatalf("QR(empty) = %v, want ErrShape", err)
	}
	if _, err := factor.LU(nil, factor.Options{}); !errors.Is(err, factor.ErrShape) {
		t.Fatalf("LU(nil) = %v, want ErrShape", err)
	}
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 1})
	defer eng.Close()
	if _, err := eng.QRCtx(context.Background(), empty, factor.Options{}); !errors.Is(err, factor.ErrShape) {
		t.Fatalf("engine QR(empty) = %v, want ErrShape", err)
	}
	if _, err := eng.LUCtx(context.Background(), nil, factor.Options{}); !errors.Is(err, factor.ErrShape) {
		t.Fatalf("engine LU(nil) = %v, want ErrShape", err)
	}
}

func TestEventsTrace(t *testing.T) {
	a := factor.Random(60, 30, 17)
	lu, err := factor.LU(a, factor.Options{BlockSize: 10, Trace: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	events := lu.Events()
	if len(events) == 0 {
		t.Fatal("trace requested but no events")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		if e.End < e.Start || e.Worker < 0 || e.Worker >= 2 {
			t.Fatalf("bad event %+v", e)
		}
		kinds[e.Kind] = true
	}
	for _, k := range []string{"P", "L", "U", "S"} {
		if !kinds[k] {
			t.Fatalf("no %s tasks in trace: %v", k, kinds)
		}
	}
	// Without Trace the result carries no events.
	b := factor.Random(60, 30, 18)
	qr, err := factor.QR(b, factor.Options{BlockSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Events() != nil {
		t.Fatal("events without Trace")
	}
}
