package main

// httptest coverage for the ABFT-facing surface: the per-request verify
// flag in both encodings, the ErrCorrupted → 503 + Retry-After mapping,
// the ABFT counters on /metrics, and the drain-aware /readyz probe.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/factor"
	"repro/internal/fault"
)

func TestReadyzDrainFlip(t *testing.T) {
	eng := factor.NewEngineWithConfig(factor.EngineConfig{Workers: 1})
	srv := newServer(eng, requestDefaults{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz before drain = %d, want 200", got)
	}
	srv.startDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	// Liveness must not flip: killing the process mid-drain would abort the
	// very requests the drain is protecting.
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", got)
	}
}

// TestVerifyFlagBothEncodings: a clean request with verification armed
// succeeds in both encodings — the zero-false-positive contract at the
// HTTP boundary.
func TestVerifyFlagBothEncodings(t *testing.T) {
	url, eng := newTestService(t, factor.EngineConfig{Workers: 2}, requestDefaults{})

	resp := jsonLU(t, url, jsonRequest{
		Rows: 24, Cols: 24, Data: randomData(24, 24, 7),
		Options: jsonOptions{BlockSize: 8}, Verify: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("verified JSON LU status %d: %s", resp.StatusCode, b)
	}

	bresp, err := http.Post(url+"/v1/qr?rows=24&cols=16&block=8&verify=1",
		"application/octet-stream", bytes.NewReader(binaryBody(randomData(24, 16, 8))))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(bresp.Body)
		t.Fatalf("verified binary QR status %d: %s", bresp.StatusCode, b)
	}

	st := eng.Stats()
	if st.CorruptionsDetected != 0 || st.VerifyFailRetries != 0 {
		t.Fatalf("clean verified requests flagged corruption: %+v", st)
	}
}

// TestCorruptedRequestMapsTo503: with corruption injected and retries off,
// the detected mismatch surfaces as 503 + Retry-After, and the ABFT
// counters appear on /metrics.
func TestCorruptedRequestMapsTo503(t *testing.T) {
	inj := fault.New(11, fault.Rule{Kind: fault.Corrupt, Match: "S k=0", Rate: 1, Count: 1, Perturb: 1e6})
	url, _ := newTestService(t, factor.EngineConfig{
		Workers:         2,
		PostInterceptor: inj.InterceptPost,
	}, requestDefaults{verify: true})

	resp := jsonLU(t, url, jsonRequest{
		Rows: 24, Cols: 24, Data: randomData(24, 24, 9),
		Options: jsonOptions{BlockSize: 8},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("corrupted request status %d: %s", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("503 for corruption has Retry-After %q, want 1", ra)
	}
	if got := inj.Injected(fault.Corrupt); got != 1 {
		t.Fatalf("injected %d corruptions, want 1", got)
	}

	mresp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"facsvc_engine_corruptions_detected_total 1",
		"facsvc_engine_panels_recomputed_total",
		"facsvc_engine_verify_fail_retries_total",
		"facsvc_engine_cache_integrity_evictions_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestCorruptedRequestRecoversWithRetries: the same corruption with
// retries on is healed end to end — the client sees 200 and the retry is
// attributed to verification.
func TestCorruptedRequestRecoversWithRetries(t *testing.T) {
	inj := fault.New(11, fault.Rule{Kind: fault.Corrupt, Match: "S k=0", Rate: 1, Count: 1, Perturb: 1e6})
	url, eng := newTestService(t, factor.EngineConfig{
		Workers:         2,
		MaxRetries:      2,
		PostInterceptor: inj.InterceptPost,
	}, requestDefaults{verify: true})

	resp := jsonLU(t, url, jsonRequest{
		Rows: 24, Cols: 24, Data: randomData(24, 24, 9),
		Options: jsonOptions{BlockSize: 8},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("recoverable corrupted request status %d: %s", resp.StatusCode, b)
	}
	var out jsonLUResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Factors) != 24*24 {
		t.Fatalf("malformed factors after recovery: %d values", len(out.Factors))
	}
	st := eng.Stats()
	if st.CorruptionsDetected == 0 || st.VerifyFailRetries == 0 {
		t.Fatalf("recovery not attributed to verification: %+v", st)
	}
}
