// Command facsvc is the factorization-as-a-service front end: an HTTP
// server exposing the self-healing factor.Engine. It accepts LU and QR
// requests in JSON or raw binary encoding, maps the engine's typed errors
// onto HTTP statuses (429 with Retry-After under overload, 422 for
// singular inputs, 503 with Retry-After for detected silent corruption,
// 504 for expired deadlines), serves the engine's robustness counters at
// /metrics, exposes liveness (/healthz) and drain-aware readiness
// (/readyz) probes, and drains gracefully on SIGTERM. See doc/SERVICE.md
// for the wire contract and operational notes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/factor"
)

// serviceConfig is the flag-derived configuration of one facsvc process.
type serviceConfig struct {
	addr         string
	pprofAddr    string
	engine       factor.EngineConfig
	defaults     requestDefaults
	drainTimeout time.Duration
}

func main() {
	var cfg serviceConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&cfg.pprofAddr, "pprof", "", "serve net/http/pprof on this address (empty = off)")
	flag.IntVar(&cfg.engine.Workers, "workers", 0, "factorization pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.engine.MaxInFlight, "max-in-flight", 64, "admission limit; excess requests get 429 (0 = unlimited)")
	flag.IntVar(&cfg.engine.MaxRetries, "max-retries", 2, "retries for transient factorization failures")
	flag.DurationVar(&cfg.engine.StallTimeout, "stall-timeout", 30*time.Second, "watchdog stall threshold (0 = off)")
	flag.IntVar(&cfg.engine.CacheEntries, "cache-entries", 128, "result cache capacity (0 = off)")
	flag.DurationVar(&cfg.engine.BatchWindow, "batch-window", 500*time.Microsecond, "request coalescing window (0 = off)")
	flag.IntVar(&cfg.engine.BatchMaxRequests, "batch-max-requests", 16, "flush a coalescing window early at this many requests")
	flag.IntVar(&cfg.engine.BatchMaxDim, "batch-max-dim", 256, "largest matrix dimension eligible for coalescing")
	flag.Float64Var(&cfg.defaults.growth, "growth-threshold", 0, "LU pivot-growth guardrail for requests that set none (0 = off)")
	flag.BoolVar(&cfg.defaults.verify, "verify", false, "force ABFT checksum verification on every request")
	flag.IntVar(&cfg.engine.MaxPanelRecomputes, "max-panel-recomputes", 0, "corrupted-panel recompute budget per verified LU (0 = default 2, negative = escalate immediately)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight work")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		log.Fatalf("facsvc: %v", err)
	}
}

// run starts the service and blocks until ctx is cancelled (SIGTERM/SIGINT
// in production, the test's cancel in tests) and the drain completes. If
// ready is non-nil, the bound listener address is sent on it once the
// server is accepting — tests use it to connect to ":0" listeners.
func run(ctx context.Context, cfg serviceConfig, ready chan<- net.Addr) error {
	// The engine registers its metrics under facsvc_engine_* so the /metrics
	// keys match the service's historical hand-rolled exposition.
	cfg.engine.MetricsNamespace = "facsvc_engine"
	eng := factor.NewEngineWithConfig(cfg.engine)
	srv := newServer(eng, cfg.defaults)

	// Opt-in profiling listener, kept off the service port so a scrape-happy
	// operator can't accidentally expose pprof with /metrics. Request handlers
	// label work with op/encoding (runtime/pprof), so profiles collected here
	// can be focused with -tagfocus op=lu.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("facsvc: pprof listen %s: %w", cfg.pprofAddr, err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go psrv.Serve(pln) // best-effort debug listener; Close below tears it down
		fmt.Fprintf(os.Stderr, "facsvc: pprof on %s\n", pln.Addr())
		defer psrv.Close()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		eng.Close()
		return fmt.Errorf("facsvc: listen %s: %w", cfg.addr, err)
	}
	// Request contexts deliberately do NOT inherit ctx: a shutdown signal
	// must let in-flight factorizations finish (Shutdown waits for them
	// below), not cancel them mid-run.
	hs := &http.Server{Handler: srv.handler()}

	errc := make(chan error, 1)
	go func() {
		defer func() {
			// A crashed accept loop must surface as a process exit, not a
			// silent hang.
			if r := recover(); r != nil {
				errc <- fmt.Errorf("facsvc: serve panicked: %v", r)
			}
		}()
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			errc <- fmt.Errorf("facsvc: serve: %w", err)
		} else {
			errc <- nil
		}
	}()
	fmt.Fprintf(os.Stderr, "facsvc: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-errc:
		eng.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: flip /readyz to 503 first so load balancers stop
	// routing here, then stop accepting, let in-flight requests finish
	// within the budget, and drain the engine the same way.
	srv.startDrain()
	fmt.Fprintf(os.Stderr, "facsvc: shutting down (drain %v)\n", cfg.drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout) // calint:ignore ctx-propagation -- shutdown outlives the cancelled serve context
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The deadline passed with requests still open; Close below cancels
		// their factorizations.
		fmt.Fprintf(os.Stderr, "facsvc: forced shutdown: %v\n", err)
	}
	<-errc
	if err := eng.CloseWithTimeout(cfg.drainTimeout); err != nil {
		return fmt.Errorf("facsvc: engine drain: %w", err)
	}
	return nil
}
