package factor

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestEngineStatsAndRegistryShareStorage checks the rebuilt Stats(): the
// struct fields and the Prometheus exposition read the same metrics, under
// a custom namespace.
func TestEngineStatsAndRegistryShareStorage(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{
		Workers:          2,
		CacheEntries:     4,
		MetricsNamespace: "svc_engine",
	})
	defer eng.Close()

	a := Random(64, 32, 7)
	opt := Options{BlockSize: 8, PanelThreads: 2}
	if _, _, err := eng.LUCachedCtx(context.Background(), a, opt); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := eng.LUCachedCtx(context.Background(), a, opt); err != nil || !hit {
		t.Fatalf("second identical request: hit=%v err=%v", hit, err)
	}

	st := eng.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("Stats cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.PoolTasks == 0 {
		t.Fatal("Stats.PoolTasks = 0 after a factorization")
	}

	var b strings.Builder
	if err := eng.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("engine exposition invalid: %v\n%s", err, b.String())
	}
	vals := map[string]float64{}
	var sawLatency bool
	for _, f := range fams {
		if !strings.HasPrefix(f.Name, "svc_engine_") {
			t.Fatalf("metric %q missing namespace prefix", f.Name)
		}
		for _, s := range f.Samples {
			if s.Name == "svc_engine_request_seconds_count" && s.Label("op") == "lu" {
				sawLatency = true
				if s.Value < 1 {
					t.Fatalf("lu request_seconds count = %g, want >= 1", s.Value)
				}
			}
			if len(s.LabelNames) == 0 {
				vals[s.Name] = s.Value
			}
		}
	}
	if !sawLatency {
		t.Fatal("no svc_engine_request_seconds series for op=lu")
	}
	if got := vals["svc_engine_cache_hits_total"]; got != float64(st.CacheHits) {
		t.Fatalf("exposition cache hits %g != Stats %d", got, st.CacheHits)
	}
	if got := vals["svc_engine_cache_misses_total"]; got != float64(st.CacheMisses) {
		t.Fatalf("exposition cache misses %g != Stats %d", got, st.CacheMisses)
	}
	if got := vals["svc_engine_pool_tasks_total"]; got < 1 {
		t.Fatalf("exposition pool tasks %g, want >= 1", got)
	}
	if got := vals["svc_engine_in_flight"]; got != 0 {
		t.Fatalf("exposition in_flight %g after drain, want 0", got)
	}
}

// TestEnginePoolMetrics checks the pool instrumentation surfaces through
// the engine.
func TestEnginePoolMetrics(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 2})
	defer eng.Close()
	a := Random(64, 32, 3)
	if _, err := eng.LUCtx(context.Background(), a, Options{BlockSize: 8, PanelThreads: 2}); err != nil {
		t.Fatal(err)
	}
	pm := eng.PoolMetrics()
	if pm.Workers != 2 || pm.Completed == 0 || pm.Submissions == 0 {
		t.Fatalf("PoolMetrics = %+v", pm)
	}
}

// TestCriticalPathSummary checks the public critical-path API on a traced
// engine run.
func TestCriticalPathSummary(t *testing.T) {
	eng := NewEngineWithConfig(EngineConfig{Workers: 4})
	defer eng.Close()
	a := Random(120, 60, 9)
	f, err := eng.LUCtx(context.Background(), a, Options{BlockSize: 12, PanelThreads: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := f.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length <= 0 || cp.Fraction <= 0 || cp.Fraction > 1.000001 {
		t.Fatalf("summary = %+v", cp)
	}
	if len(cp.PathTasks) == 0 || len(cp.WorkerIdle) != 4 {
		t.Fatalf("summary shape = %+v", cp)
	}
	var b strings.Builder
	cp.Report(&b)
	if !strings.Contains(b.String(), "critical path:") {
		t.Fatalf("report = %q", b.String())
	}

	// Untraced runs must error, not panic.
	f2, err := eng.LUCtx(context.Background(), Random(64, 32, 3), Options{BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.CriticalPath(); err == nil {
		t.Fatal("CriticalPath on untraced run should error")
	}
}
