package main

// Precedence of the service's request defaults: a request that leaves
// growth_threshold at 0 takes -growth-threshold, a request's own value
// wins, in both encodings, and only the effective options reach the cache
// key.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/factor"
)

func TestGrowthDefaultPrecedence(t *testing.T) {
	const (
		n, b       = 32, 8
		flagGrowth = 1e-9 // below any real growth: every panel falls back to GEPP
		ownGrowth  = 1e6  // above it: no panel does
	)
	data := randomData(n, n, 21)
	ref := func(growth float64) []float64 {
		a := factor.FromColMajor(n, n, n, slices.Clone(data))
		f, err := factor.LU(a, factor.Options{BlockSize: b, PanelThreads: 2, Workers: 2, GrowthThreshold: growth})
		if err != nil {
			t.Fatal(err)
		}
		if tripped := len(f.FallbackPanels()) > 0; tripped != (growth == flagGrowth) {
			t.Fatalf("growth %g: guardrail tripped = %v", growth, tripped)
		}
		out := matrixValues(a)
		for _, p := range f.PermutationVector() {
			out = append(out, float64(p))
		}
		return out
	}
	wantFlag, wantOwn := ref(flagGrowth), ref(ownGrowth)
	if slices.Equal(wantFlag, wantOwn) {
		t.Fatal("the two thresholds give the same factors; the test cannot tell them apart")
	}

	// post sends one cached LU request and returns its factors with the
	// permutation appended, and its X-Cache state.
	post := func(t *testing.T, base, enc string, growth float64) ([]float64, string) {
		t.Helper()
		var resp *http.Response
		var err error
		if enc == "json" {
			body, _ := json.Marshal(jsonRequest{Rows: n, Cols: n, Data: data, Cache: true,
				Options: jsonOptions{BlockSize: b, PanelThreads: 2, GrowthThreshold: growth}})
			resp, err = http.Post(base+"/v1/lu", "application/json", bytes.NewReader(body))
		} else {
			q := fmt.Sprintf("/v1/lu?rows=%d&cols=%d&block=%d&panels=2&cache=1", n, n, b)
			if growth != 0 {
				q += "&growth=" + url.QueryEscape(strconv.FormatFloat(growth, 'g', -1, 64))
			}
			resp, err = http.Post(base+q, "application/octet-stream", bytes.NewReader(binaryBody(data)))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s growth %g: status %d err %v: %s", enc, growth, resp.StatusCode, err, raw)
		}
		var out []float64
		if enc == "json" {
			var lr jsonLUResponse
			if err := json.Unmarshal(raw, &lr); err != nil {
				t.Fatal(err)
			}
			out = lr.Factors
			for _, p := range lr.Perm {
				out = append(out, float64(p))
			}
		} else {
			for i := 0; i+8 <= len(raw); i += 8 {
				out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
			}
			for _, s := range strings.Fields(resp.Header.Get("X-Permutation")) {
				p, err := strconv.Atoi(s)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, float64(p))
			}
		}
		return out, resp.Header.Get("X-Cache")
	}

	for _, enc := range []string{"json", "binary"} {
		t.Run(enc, func(t *testing.T) {
			base, eng := newTestService(t, factor.EngineConfig{Workers: 2, CacheEntries: 8}, requestDefaults{growth: flagGrowth})
			for _, c := range []struct {
				growth    float64
				want      []float64
				wantCache string
			}{
				{0, wantFlag, "miss"},         // takes the flag's default
				{flagGrowth, wantFlag, "hit"}, // same effective options, same entry
				{ownGrowth, wantOwn, "miss"},  // the request's own value wins
			} {
				got, cache := post(t, base, enc, c.growth)
				if !slices.Equal(got, c.want) {
					t.Errorf("growth %g: factors differ from factor.LU with the effective threshold", c.growth)
				}
				if cache != c.wantCache {
					t.Errorf("growth %g: X-Cache %q, want %q", c.growth, cache, c.wantCache)
				}
			}
			if s := eng.Stats(); s.CacheHits != 1 || s.CacheMisses != 2 {
				t.Fatalf("cache counters hits=%d misses=%d, want 1/2", s.CacheHits, s.CacheMisses)
			}
		})
	}
}
