// Command schedserver serves the scheduling library over HTTP: a
// concurrent solve engine with a compiled-instance cache, full-result
// memoization, a scenario preset library and structured metrics.
//
// Usage:
//
//	schedserver [-addr :8080] [-workers N] [-compile-workers N]
//	            [-compiled-cache 64] [-result-cache 512] [-cache-shards N]
//	            [-max-demands 20000] [-pprof]
//	            [-trace-sample 0.01] [-slow-ms 500] [-recorder 128]
//	            [-log-requests PATH|-]
//
// API:
//
//	POST /solve      {"algo":"tree-unit","problem":{...}} or
//	                 {"algo":"line-unit","scenario":"videowall-line","scenario_seed":7}
//	POST /batch      NDJSON stream of solve requests -> NDJSON responses
//	GET  /scenarios  preset library + algorithm registry
//	GET  /healthz    liveness
//	GET  /metrics    request/cache/latency counters (JSON), SLO burn rates
//	GET  /metrics.prom  the same counters in Prometheus text format
//	GET  /debug/requests       flight recorder: active + retained requests
//	GET  /debug/requests/{id}  one request's record / span timeline
//	GET  /debug/events         structured event log
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// Responses are deterministic: equal requests (same problem or scenario
// seed, algorithm and options) return byte-identical JSON, cold or
// cached. SIGINT/SIGTERM trigger a graceful drain, bounded as a whole by
// -drain-timeout: solves still running when it passes are abandoned.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"treesched/internal/service"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		workers        = flag.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		compileWorkers = flag.Int("compile-workers", 0, "model-build fan-out per compilation (0 = GOMAXPROCS, 1 = serial)")
		compiledCache  = flag.Int("compiled-cache", 64, "compiled-model cache entries")
		resultCache    = flag.Int("result-cache", 512, "memoized-result cache entries")
		cacheShards    = flag.Int("cache-shards", 0, "lock shards per cache (0 = GOMAXPROCS-derived, 1 = single-lock oracle path)")
		maxDemands     = flag.Int("max-demands", 20000, "reject problems with more demands")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		enablePprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiles expose internals)")
		traceSample    = flag.Float64("trace-sample", 0.01, "probability an ordinary request keeps its span timeline in /debug/requests (slow and errored requests always keep theirs; 0 disables span recording entirely)")
		slowMs         = flag.Int("slow-ms", 500, "requests slower than this land in the flight recorder's slow class")
		recorderSize   = flag.Int("recorder", 128, "flight-recorder retained requests per class (recent/slow/error)")
		logRequests    = flag.String("log-requests", "", "write one NDJSON line per completed request to this path (\"-\" = stderr)")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:           *workers,
		CompileWorkers:    *compileWorkers,
		CompiledCacheSize: *compiledCache,
		ResultCacheSize:   *resultCache,
		CacheShards:       *cacheShards,
		MaxDemands:        *maxDemands,
		TraceSample:       *traceSample,
		SlowThreshold:     time.Duration(*slowMs) * time.Millisecond,
		RecorderRequests:  *recorderSize,
	}
	if *logRequests != "" {
		if *logRequests == "-" {
			cfg.RequestLog = os.Stderr
		} else {
			f, err := os.OpenFile(*logRequests, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("schedserver: -log-requests: %v", err)
			}
			defer f.Close()
			cfg.RequestLog = f
		}
	}
	engine := service.New(cfg)

	handler := engine.Handler()
	if *enablePprof {
		// Wrap rather than touch the engine mux: the service package stays
		// free of debug endpoints, and the opt-in is visible in one place.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("schedserver: pprof enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("schedserver: listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatalf("schedserver: %v", err)
	case <-ctx.Done():
	}

	log.Printf("schedserver: draining (up to %s)...", *drainTimeout)
	drain(srv, engine.Close, func() int64 { return engine.Metrics().InFlight }, *drainTimeout, log.Printf)
	log.Printf("schedserver: bye")
}

// drain runs the shutdown sequence within one budget: srv.Shutdown stops
// accepting connections and waits for the active handlers, then
// closeEngine waits for the solves still running. Neither may outlast
// the deadline: when it passes first, drain logs how many solves
// inFlight still counts, abandons them and returns, so the process exits
// on time however long a solve runs. It reports whether everything
// drained.
func drain(srv interface{ Shutdown(context.Context) error }, closeEngine func(), inFlight func() int64,
	timeout time.Duration, logf func(format string, args ...any)) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("schedserver: shutdown: %v", err)
	}
	closed := make(chan struct{})
	go func() {
		closeEngine()
		close(closed)
	}()
	select {
	case <-closed:
		return true
	case <-ctx.Done():
		logf("schedserver: drain budget %s spent; abandoning %d in-flight solves", timeout, inFlight())
		return false
	}
}
