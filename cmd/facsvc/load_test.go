package main

// Saturating load test for the ISSUE acceptance criterion: under
// concurrent load beyond MaxInFlight the service answers every request
// with 200 or 429 — it never hangs and never 500s — and /metrics
// reconciles with the client-observed outcomes.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/factor"
)

func TestSaturatingLoadShedsCleanly(t *testing.T) {
	const (
		maxInFlight = 2
		clients     = 24
	)
	url, eng := newTestService(t, factor.EngineConfig{
		Workers:     2,
		MaxInFlight: maxInFlight,
	}, requestDefaults{})

	body, err := json.Marshal(jsonRequest{Rows: 64, Cols: 64, Data: randomData(64, 64, 11), Options: jsonOptions{BlockSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	statuses := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/lu", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}()
	}
	wg.Wait()

	var ok200, shed429 int
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d transport error: %v", i, errs[i])
		}
		switch statuses[i] {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Fatalf("client %d got status %d, want 200 or 429", i, statuses[i])
		}
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	t.Logf("saturation: %d ok, %d shed", ok200, shed429)

	// The engine's own counter must agree with what clients saw.
	if s := eng.Stats(); s.Shed != int64(shed429) {
		t.Fatalf("engine Shed = %d, clients saw %d 429s", s.Shed, shed429)
	}

	// /metrics must reconcile exactly with the client-observed outcomes,
	// through the strict exposition parser rather than string matching.
	fams := scrape(t, url)
	if got, okk := sample(fams, "facsvc_http_requests_total", "op", "lu", "status", "200"); !okk || got != float64(ok200) {
		t.Fatalf(`facsvc_http_requests_total{op="lu",status="200"} = %g ok=%v, want %d`, got, okk, ok200)
	}
	if shed429 > 0 {
		if got, okk := sample(fams, "facsvc_http_requests_total", "op", "lu", "status", "429"); !okk || got != float64(shed429) {
			t.Fatalf(`facsvc_http_requests_total{op="lu",status="429"} = %g ok=%v, want %d`, got, okk, shed429)
		}
	}
	if got, okk := sample(fams, "facsvc_engine_shed_total"); !okk || got != float64(shed429) {
		t.Fatalf("facsvc_engine_shed_total = %g ok=%v, want %d", got, okk, shed429)
	}
	if got, okk := sample(fams, "facsvc_http_requests_started_total", "op", "lu"); !okk || got != float64(clients) {
		t.Fatalf(`facsvc_http_requests_started_total{op="lu"} = %g ok=%v, want %d`, got, okk, clients)
	}
}
