package factor

// Tests for the serving-oriented engine features: the backoff clamp and
// admission-ordering bugfixes, request coalescing, and the content-addressed
// result cache.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestBackoffDelayNeverExceedsMax is the regression test for the jitter
// clamp bug: jitter used to be added after clamping to RetryBackoffMax, so
// late retries could sleep up to 1.5x the configured cap. Every delay, at
// every attempt, must stay within [0, max].
func TestBackoffDelayNeverExceedsMax(t *testing.T) {
	const (
		base = 2 * time.Millisecond
		max  = 50 * time.Millisecond
	)
	for attempt := 0; attempt < 40; attempt++ {
		for trial := 0; trial < 200; trial++ {
			d := BackoffDelay(base, max, attempt)
			if d <= 0 || d > max {
				t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, max)
			}
		}
	}
	// The shift overflow path (attempt large enough that base<<attempt
	// wraps negative) must also land on the clamped max, not a garbage
	// duration.
	for trial := 0; trial < 200; trial++ {
		if d := BackoffDelay(base, max, 200); d <= 0 || d > max {
			t.Fatalf("overflowed attempt: delay %v outside (0, %v]", d, max)
		}
	}
}

// TestServeChecksContextBeforeAdmission is the regression test for the
// admission-ordering bug: a request arriving with an already-cancelled
// context used to consume an admission decision first, so on a saturated
// engine it was misreported as ErrOverloaded (and counted as shed),
// telling a retrying client to back off for capacity the engine never
// lacked. The cancelled request must report its own cancellation and leave
// the Shed counter alone; a live request on the same saturated engine must
// still shed.
func TestServeChecksContextBeforeAdmission(t *testing.T) {
	gate := make(chan struct{})
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, MaxInFlight: 1,
		Interceptor: func(info TaskInfo) error {
			<-gate
			return nil
		},
	})
	defer eng.Close()

	// Saturate the single slot with a request blocked inside the pool.
	first := make(chan error, 1)
	go func() {
		_, err := eng.LUCtx(context.Background(), Random(16, 16, 1), Options{BlockSize: 4})
		first <- err
	}()
	for i := 0; eng.Stats().InFlight == 0; i++ {
		if i > 2000 {
			close(gate)
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A pre-cancelled request must report cancellation, not overload.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.LUCtx(cancelled, Random(16, 16, 2), Options{BlockSize: 4})
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCancelled) {
		close(gate)
		t.Fatalf("pre-cancelled request on saturated engine: err = %v, want context.Canceled via ErrCancelled", err)
	}
	if errors.Is(err, ErrOverloaded) {
		close(gate)
		t.Fatalf("pre-cancelled request misclassified as overload: %v", err)
	}
	if shed := eng.Stats().Shed; shed != 0 {
		close(gate)
		t.Fatalf("pre-cancelled request bumped Shed to %d", shed)
	}

	// A live request must still be shed by admission control.
	_, err = eng.LUCtx(context.Background(), Random(16, 16, 3), Options{BlockSize: 4})
	if !errors.Is(err, ErrOverloaded) {
		close(gate)
		t.Fatalf("live request on saturated engine: err = %v, want ErrOverloaded", err)
	}
	if shed := eng.Stats().Shed; shed != 1 {
		close(gate)
		t.Fatalf("Shed = %d after one shed request, want 1", shed)
	}

	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("blocked request failed after release: %v", err)
	}
}

// TestEntryPointsBitIdentical checks that every LU and QR entry point
// computes the same bits for the same Options: the package-level call,
// Engine.*Ctx, the coalescing path and the cache (miss and hit). A
// coalesced burst must also ride no more submissions than requests and
// leave the callers' matrices holding the factors.
func TestEntryPointsBitIdentical(t *testing.T) {
	t.Run("lu", func(t *testing.T) {
		checkEntryPoints(t, LU, (*Engine).LUCtx, (*Engine).LUCachedCtx, func(f *LUFactorization) []float64 {
			out := values(f.res.A)
			for _, p := range f.PermutationVector() {
				out = append(out, float64(p))
			}
			return out
		})
	})
	t.Run("qr", func(t *testing.T) {
		checkEntryPoints(t, QR, (*Engine).QRCtx, (*Engine).QRCachedCtx, func(f *QRFactorization) []float64 {
			// Q^T c reads the tree reflectors held by the handle.
			c := Random(f.res.A.Rows, 1, 99)
			f.ApplyQT(c)
			return append(values(f.res.A), values(c)...)
		})
	})
}

// values lists m's entries column by column.
func values(m *Matrix) []float64 {
	var out []float64
	for j := 0; j < m.Cols; j++ {
		out = append(out, m.Data[j*m.Stride:j*m.Stride+m.Rows]...)
	}
	return out
}

// checkEntryPoints runs one operation through every entry point; bits
// reads a result (including the caller's matrix, which holds the factors).
func checkEntryPoints[F any](t *testing.T,
	once func(*Matrix, Options) (F, error),
	onEngine func(*Engine, context.Context, *Matrix, Options) (F, error),
	cached func(*Engine, context.Context, *Matrix, Options) (F, bool, error),
	bits func(F) []float64,
) {
	ctx := context.Background()
	opt := Options{BlockSize: 8, PanelThreads: 2, Workers: 2}
	const n = 6
	inputs := make([]*Matrix, n)
	want := make([][]float64, n)
	for i := range inputs {
		inputs[i] = Random(48, 24+(i%2)*8, int64(i+1))
		f, err := once(inputs[i].Clone(), opt)
		if err != nil {
			t.Fatalf("package-level %d: %v", i, err)
		}
		want[i] = bits(f)
	}
	same := func(path string, i int, f F) {
		t.Helper()
		if !slices.Equal(bits(f), want[i]) {
			t.Errorf("%s %d: result differs from the package-level call", path, i)
		}
	}

	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: n})
	defer eng.Close()
	for i, in := range inputs {
		f, err := onEngine(eng, ctx, in.Clone(), opt)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		same("engine", i, f)
		orig := in.Clone()
		for _, wantHit := range []bool{false, true} {
			f, hit, err := cached(eng, ctx, in, opt)
			if err != nil || hit != wantHit {
				t.Fatalf("cached %d: hit=%v err=%v, want hit=%v", i, hit, err, wantHit)
			}
			same("cached", i, f)
		}
		if !in.Equal(orig) {
			t.Fatalf("cached %d modified its input", i)
		}
	}

	batching := NewEngineWithConfig(EngineConfig{Workers: 2, BatchWindow: 20 * time.Millisecond})
	defer batching.Close()
	results := make([]F, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range inputs {
		a := inputs[i].Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = onEngine(batching, ctx, a, opt)
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if errs[i] != nil {
			t.Fatalf("batched %d: %v", i, errs[i])
		}
		same("batched", i, results[i])
	}
	if s := batching.Stats(); s.BatchedRequests != n || s.BatchFlushes < 1 || s.BatchFlushes > n {
		t.Fatalf("BatchedRequests = %d, BatchFlushes = %d; want %d and within [1, %d]", s.BatchedRequests, s.BatchFlushes, n, n)
	}
}

// TestBatchIneligibleBypasses checks the routing guards: wide and oversize
// matrices, and traced requests, skip the batcher entirely.
func TestBatchIneligibleBypasses(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{
		Workers: 2, BatchWindow: time.Millisecond, BatchMaxDim: 32,
	})
	defer eng.Close()

	wide := Random(8, 16, 1)
	if _, err := eng.LUCtx(context.Background(), wide, Options{BlockSize: 4}); err != nil {
		t.Fatalf("wide LU on batching engine: %v", err)
	}
	big := Random(64, 48, 2)
	if _, err := eng.LUCtx(context.Background(), big, Options{BlockSize: 8}); err != nil {
		t.Fatalf("oversize LU on batching engine: %v", err)
	}
	traced := Random(24, 24, 3)
	f, err := eng.LUCtx(context.Background(), traced, Options{BlockSize: 8, Trace: true})
	if err != nil {
		t.Fatalf("traced LU on batching engine: %v", err)
	}
	if len(f.Events()) == 0 {
		t.Fatal("traced request lost its events (was it batched?)")
	}
	if s := eng.Stats(); s.BatchedRequests != 0 {
		t.Fatalf("BatchedRequests = %d for ineligible requests, want 0", s.BatchedRequests)
	}
}

// TestBatchFailureIsolated checks per-request isolation on the coalesced
// path: a singular batch member fails with ErrSingular while its
// batch-mate succeeds, and the caller's matrix is untouched by its own
// failed request.
func TestBatchFailureIsolated(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, BatchWindow: 20 * time.Millisecond})
	defer eng.Close()

	sing := NewMatrix(16, 16) // all zeros
	singOrig := sing.Clone()
	good := Random(16, 16, 4)

	var wg sync.WaitGroup
	var singErr, goodErr error
	wg.Add(2)
	go func() { defer wg.Done(); _, singErr = eng.LUCtx(context.Background(), sing, Options{BlockSize: 4}) }()
	go func() { defer wg.Done(); _, goodErr = eng.LUCtx(context.Background(), good, Options{BlockSize: 4}) }()
	wg.Wait()

	if !errors.Is(singErr, ErrSingular) {
		t.Fatalf("singular member: err = %v, want ErrSingular", singErr)
	}
	if goodErr != nil {
		t.Fatalf("good member failed alongside singular one: %v", goodErr)
	}
	if !sing.Equal(singOrig) {
		t.Fatal("failed batched request modified the caller's matrix")
	}
}

// TestBatchDrainOnClose checks Close flushes a pending window: a request
// sitting in an unexpired window when Close is called still completes.
func TestBatchDrainOnClose(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, BatchWindow: time.Hour})
	a := Random(20, 20, 5)
	done := make(chan error, 1)
	go func() {
		_, err := eng.LUCtx(context.Background(), a, Options{BlockSize: 5})
		done <- err
	}()
	// Wait for the request to be sitting in the window.
	for i := 0; eng.Stats().BatchedRequests == 0; i++ {
		if i > 2000 {
			t.Fatal("request never reached the batcher")
		}
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batched request failed across Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batched request never completed after Close")
	}
}

// TestCacheHitSkipsFactorization checks the content-addressed cache:
// repeated identical requests are served from the cache (hit counter moves,
// pool task counter does not), different inputs or options miss, and the
// input matrix is never modified.
func TestCacheHitSkipsFactorization(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 8})
	defer eng.Close()
	opt := Options{BlockSize: 8}
	a := Random(32, 32, 6)
	orig := a.Clone()

	f1, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("first cached LU: %v", err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	if !a.Equal(orig) {
		t.Fatal("cached entry point modified the input on a miss")
	}
	tasksAfterMiss := eng.Stats().PoolTasks

	f2, hit, err := eng.LUCachedCtx(context.Background(), a, opt)
	if err != nil {
		t.Fatalf("second cached LU: %v", err)
	}
	if !hit {
		t.Fatal("identical repeat request missed the cache")
	}
	if f2 != f1 {
		t.Fatal("cache hit returned a different handle")
	}
	if got := eng.Stats().PoolTasks; got != tasksAfterMiss {
		t.Fatalf("cache hit ran %d new pool tasks", got-tasksAfterMiss)
	}
	if !a.Equal(orig) {
		t.Fatal("cached entry point modified the input on a hit")
	}

	// A different matrix, and the same matrix under different numeric
	// options, must both miss.
	b := Random(32, 32, 7)
	if _, hit, err = eng.LUCachedCtx(context.Background(), b, opt); err != nil || hit {
		t.Fatalf("different matrix: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err = eng.LUCachedCtx(context.Background(), a, Options{BlockSize: 16}); err != nil || hit {
		t.Fatalf("different options: hit=%v err=%v, want miss", hit, err)
	}
	// QR of the same bytes is a distinct key.
	if _, hit, err = eng.QRCachedCtx(context.Background(), a, opt); err != nil || hit {
		t.Fatalf("QR of LU-cached bytes: hit=%v err=%v, want miss", hit, err)
	}

	s := eng.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 4 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/4", s.CacheHits, s.CacheMisses)
	}
}

// TestCacheEviction checks the LRU bound: filling past CacheEntries evicts
// the oldest entry, which then misses again.
func TestCacheEviction(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 2})
	defer eng.Close()
	opt := Options{BlockSize: 8}
	mats := []*Matrix{Random(16, 16, 1), Random(16, 16, 2), Random(16, 16, 3)}
	for i, m := range mats {
		if _, hit, err := eng.LUCachedCtx(context.Background(), m, opt); err != nil || hit {
			t.Fatalf("fill %d: hit=%v err=%v", i, hit, err)
		}
	}
	if ev := eng.Stats().CacheEvictions; ev != 1 {
		t.Fatalf("CacheEvictions = %d after overfilling by one, want 1", ev)
	}
	// The first entry was evicted: it misses; the last still hits.
	if _, hit, err := eng.LUCachedCtx(context.Background(), mats[0], opt); err != nil || hit {
		t.Fatalf("evicted entry: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := eng.LUCachedCtx(context.Background(), mats[2], opt); err != nil || !hit {
		t.Fatalf("resident entry: hit=%v err=%v, want hit", hit, err)
	}
}

// TestCacheFailuresNotCached checks a failed factorization is not stored:
// the same singular input fails again (and counts as a miss both times).
func TestCacheFailuresNotCached(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2, CacheEntries: 4})
	defer eng.Close()
	sing := NewMatrix(12, 12)
	for i := 0; i < 2; i++ {
		if _, hit, err := eng.LUCachedCtx(context.Background(), sing, Options{BlockSize: 4}); !errors.Is(err, ErrSingular) || hit {
			t.Fatalf("attempt %d: hit=%v err=%v, want miss with ErrSingular", i, hit, err)
		}
	}
	if s := eng.Stats(); s.CacheHits != 0 {
		t.Fatalf("failed requests produced %d cache hits", s.CacheHits)
	}
}

// TestCacheDisabledFallback checks the cached entry points still work (and
// still never modify the input) on an engine with no cache configured.
func TestCacheDisabledFallback(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2})
	defer eng.Close()
	a := Random(16, 16, 8)
	orig := a.Clone()
	for i := 0; i < 2; i++ {
		f, hit, err := eng.LUCachedCtx(context.Background(), a, Options{BlockSize: 4})
		if err != nil || hit || f == nil {
			t.Fatalf("uncached engine attempt %d: f=%v hit=%v err=%v", i, f != nil, hit, err)
		}
	}
	if !a.Equal(orig) {
		t.Fatal("uncached fallback modified the input")
	}
}
