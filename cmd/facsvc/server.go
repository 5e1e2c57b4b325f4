package main

// HTTP layer of the factorization service: routing, the typed-error to
// status-code mapping, and the /metrics endpoint. The handlers are a thin
// shell over factor.Engine — every robustness decision (admission control,
// retries, watchdog, coalescing, result cache) lives in the engine, and the
// handlers only translate its vocabulary into HTTP's.
//
// All service metrics live in internal/obs registries: the engine's own
// (namespace facsvc_engine, owned by factor.Engine) and the HTTP layer's
// (facsvc_http_*, owned here). /metrics gathers the engine registry FIRST
// and the HTTP registry second; with facsvc_http_requests_started_total
// incremented before each engine call, that ordering guarantees a scrape in
// the middle of a burst can never report more engine-side events (cache
// hits, retries, batched requests) than HTTP requests that started them.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/factor"
	"repro/internal/obs"
)

// statusClientClosedRequest is nginx's non-standard 499: the client gave up
// before the factorization finished. Distinguishing it from 504 keeps the
// deadline metric honest.
const statusClientClosedRequest = 499

// retryAfter is the Retry-After header of 429 and 503 responses, in whole
// seconds, the header's granularity. The engine's own retry backoff is
// milliseconds, so a client is told the shortest wait the header can say.
const retryAfter = "1"

// server is the facsvc HTTP front end over one factor.Engine.
type server struct {
	eng      *factor.Engine
	defaults requestDefaults // -growth-threshold and -verify

	// draining flips once on shutdown, before the listener stops accepting:
	// /readyz reports 503 from then on so a load balancer pulls the
	// instance while in-flight requests finish. /healthz stays 200 — the
	// process is alive and must not be killed mid-drain.
	draining atomic.Bool

	reg      *obs.Registry
	started  *obs.CounterVec   // facsvc_http_requests_started_total{op}
	requests *obs.CounterVec   // facsvc_http_requests_total{op,status}
	inFlight *obs.Gauge        // facsvc_http_in_flight
	seconds  *obs.HistogramVec // facsvc_http_request_seconds{op}
}

func newServer(eng *factor.Engine, defaults requestDefaults) *server {
	reg := obs.NewRegistry()
	return &server{
		eng:      eng,
		defaults: defaults,
		reg:      reg,
		started: reg.CounterVec("facsvc_http_requests_started_total",
			"Factorization requests that passed decoding and entered the engine.",
			"op"),
		requests: reg.CounterVec("facsvc_http_requests_total",
			"Finished factorization requests by operation and HTTP status.",
			"op", "status"),
		inFlight: reg.Gauge("facsvc_http_in_flight",
			"Factorization requests currently inside a handler."),
		seconds: reg.HistogramVec("facsvc_http_request_seconds",
			"Wall time of finished factorization requests, by operation.",
			nil, "op"),
	}
}

// handler returns the service's routing table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lu", func(w http.ResponseWriter, r *http.Request) { s.factorize(w, r, "lu") })
	mux.HandleFunc("POST /v1/qr", func(w http.ResponseWriter, r *http.Request) { s.factorize(w, r, "qr") })
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// startDrain flips the readiness probe to 503. Called on shutdown before
// http.Server.Shutdown so traffic stops being routed here first.
func (s *server) startDrain() { s.draining.Store(true) }

// count records one finished request for /metrics.
func (s *server) count(op string, status int) {
	s.requests.With(op, fmt.Sprintf("%d", status)).Inc()
}

// encodingName labels the request's wire encoding for pprof.
func encodingName(req *request) string {
	if req.binary {
		return "binary"
	}
	return "json"
}

// factorize serves one LU or QR request end to end.
func (s *server) factorize(w http.ResponseWriter, r *http.Request, op string) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	start := time.Now()
	defer func() { s.seconds.With(op).Observe(time.Since(start).Seconds()) }()

	req, err := decodeRequest(r, s.defaults)
	if err != nil {
		s.count(op, http.StatusBadRequest)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	ctx := r.Context()
	if req.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.timeout)
		defer cancel()
	}

	// Counted before the engine call: see the /metrics ordering invariant in
	// the file comment.
	s.started.With(op).Inc()

	// pprof labels make CPU profiles attributable per operation and wire
	// encoding (go tool pprof -tagfocus op=lu).
	cacheState := "off"
	pprof.Do(ctx, pprof.Labels("op", op, "encoding", encodingName(req)), func(ctx context.Context) {
		switch op {
		case "lu":
			var f *factor.LUFactorization
			var hit bool
			if req.cache {
				f, hit, err = s.eng.LUCachedCtx(ctx, req.a, req.opt)
				cacheState = cacheName(hit)
			} else {
				f, err = s.eng.LUCtx(ctx, req.a, req.opt)
			}
			if err != nil {
				s.fail(w, op, err)
				return
			}
			s.count(op, http.StatusOK)
			writeLUResponse(w, req, f, cacheState)
		case "qr":
			var f *factor.QRFactorization
			var hit bool
			if req.cache {
				f, hit, err = s.eng.QRCachedCtx(ctx, req.a, req.opt)
				cacheState = cacheName(hit)
			} else {
				f, err = s.eng.QRCtx(ctx, req.a, req.opt)
			}
			if err != nil {
				s.fail(w, op, err)
				return
			}
			s.count(op, http.StatusOK)
			writeQRResponse(w, req, f, cacheState)
		}
	})
}

func cacheName(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// fail maps an engine error onto its HTTP status. The order matters:
// deadline/cancellation are checked before the generic buckets because a
// cancelled request's error chain may wrap several sentinels.
func (s *server) fail(w http.ResponseWriter, op string, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, factor.ErrOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfter)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = statusClientClosedRequest
	case errors.Is(err, factor.ErrShape), errors.Is(err, factor.ErrNonFinite):
		status = http.StatusBadRequest
	case errors.Is(err, factor.ErrSingular):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, factor.ErrCorrupted):
		// Verified factorization detected unrecovered silent corruption:
		// transient, not a property of the input, so the client should
		// retry.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfter)
	case errors.Is(err, factor.ErrEngineClosed):
		status = http.StatusServiceUnavailable
	}
	s.count(op, status)
	http.Error(w, err.Error(), status)
}

// metrics serves the Prometheus text exposition of both registries. The
// engine registry is gathered strictly before the HTTP one so counters that
// only move inside an engine call (cache hits, retries) can never exceed
// facsvc_http_requests_started_total in one scrape.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	engine := s.eng.Registry().Gather()
	front := s.reg.Gather()
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	if err := engine.WriteText(w); err != nil {
		return // client went away mid-scrape; nothing to recover
	}
	_ = front.WriteText(w)
}
