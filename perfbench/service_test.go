package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestParseMetrics renders a registry shaped like facsvc's /metrics and
// reads it back through obs.ParseText.
func TestParseMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	httpSec := reg.HistogramVec("facsvc_http_request_seconds", "Handler time.", nil, "op")
	engSec := reg.HistogramVec("facsvc_engine_request_seconds", "Engine time.", nil, "op")
	hits := reg.Counter("facsvc_engine_cache_hits_total", "Cache hits.")
	httpSec.With("lu").Observe(0.004)
	httpSec.With("lu").Observe(0.006)
	httpSec.With("qr").Observe(0.010)
	engSec.With("lu").Observe(0.003)
	engSec.With("qr").Observe(0.008)
	hits.Add(7)
	var buf bytes.Buffer
	if err := reg.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := parseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("facsvc_http_request_seconds_count", 3) // summed over op="lu" and op="qr"
	near("facsvc_http_request_seconds_sum", 0.020)
	near("facsvc_engine_request_seconds_count", 2)
	near("facsvc_engine_request_seconds_sum", 0.011)
	near("facsvc_engine_cache_hits_total", 7)

	if _, err := parseMetrics(strings.NewReader("facsvc_engine_cache_hits_total 7\n")); err == nil {
		t.Error("an exposition without HELP and TYPE parsed")
	}
}

func TestMemStatRE(t *testing.T) {
	prof := "heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# Alloc = 10\n# TotalAlloc = 123456\n# Sys = 9\n# Mallocs = 789\n# Frees = 5\n"
	m := memStatRE.FindAllStringSubmatch(prof, -1)
	if len(m) != 2 || m[0][1] != "TotalAlloc" || m[0][2] != "123456" || m[1][1] != "Mallocs" || m[1][2] != "789" {
		t.Fatalf("got %q", m)
	}
}
