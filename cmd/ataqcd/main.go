// Command ataqcd is the ataqc compile service: an HTTP/JSON daemon that
// accepts compile jobs (interaction graph + architecture + options) and runs
// them on a bounded worker pool with per-request deadlines.
//
// The serving layer (internal/serve) is built to stay alive under hostile
// load: arrivals beyond the queue bound are shed with 429, per-request
// panics become structured 500s, queue pressure tightens compile budgets so
// starved requests degrade to verifier-clean linear-depth circuits instead
// of erroring, and SIGINT/SIGTERM drain in-flight jobs under a deadline.
//
// Endpoints:
//
//	POST /compile   compile a problem (serve.CompileRequest JSON)
//	GET  /healthz   liveness (always 200 while the process runs)
//	GET  /readyz    readiness (503 while draining; SLO burn warnings)
//	GET  /statz     metrics snapshot (counters, gauges, histograms,
//	                SLO burn rates, flight-recorder stats)
//	GET  /metricsz  Prometheus text exposition of the same registry
//	GET  /debugz    flight recorder: recent + in-flight jobs with phase
//	                timelines; ?stream=sse|ndjson follows commits live
//
// Every response carries an X-Ataqc-Trace-Id header (echoed in JSON
// bodies); grep the daemon log or query debugz with it to follow one
// request end to end.
//
// Pair with cmd/ataqc-bench to load-test and chaos-test a running daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	ataqc "github.com/ata-pattern/ataqc"
	"github.com/ata-pattern/ataqc/internal/serve"
	"github.com/ata-pattern/ataqc/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers  = flag.Int("workers", 0, "compile worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
		reqTO    = flag.Duration("request-timeout", 30*time.Second, "per-request compile ceiling")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight jobs on shutdown")
		maxBody  = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body cap in bytes")
		maxQubit = flag.Int("max-qubits", serve.DefaultMaxQubits, "per-request device/problem size cap")
		chaos    = flag.Bool("chaos", false, "honor request chaos directives (panic/sleep injection) for robustness testing")

		cacheDir   = flag.String("cache-dir", "", "persistent compilation-cache directory (empty = in-memory cache only)")
		cacheBytes = flag.Int64("cache-max-bytes", 0, "disk cache byte budget; LRU entries are evicted above it (0 = unbounded)")

		recSize    = flag.Int("recorder-size", 256, "flight-recorder ring capacity (completed requests debugz can replay)")
		sloWindow  = flag.Duration("slo-window", 5*time.Minute, "SLO rolling measurement window")
		sloLatency = flag.Duration("slo-latency", time.Second, "SLO latency objective: target fraction of successes must finish within this")
		sloLatPct  = flag.Float64("slo-latency-target", 0.99, "fraction of successful answers that must meet -slo-latency")
		sloErrPct  = flag.Float64("slo-error-target", 0.999, "fraction of requests that must not end in a 5xx")
		sloDegPct  = flag.Float64("slo-degrade-target", 0.9, "fraction of successful answers that must be full fidelity (undegraded)")
	)
	flag.Parse()
	// The daemon always compiles through a cache: memory-only by default
	// (repeat submissions of the same problem are served from RAM), plus a
	// persistent disk tier of compiled results when -cache-dir is given, so
	// results survive restarts and results precompiled by ataqc-warm are
	// served on first touch.
	var cache *ataqc.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = ataqc.OpenCache(*cacheDir, *cacheBytes); err != nil {
			fmt.Fprintf(os.Stderr, "ataqcd: %v\n", err)
			os.Exit(1)
		}
	} else {
		cache = ataqc.MemoryCache()
	}
	err := run(*addr, serve.Config{
		Cache:          cache,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		MaxBodyBytes:   *maxBody,
		MaxQubits:      *maxQubit,
		AllowChaos:     *chaos,
		RecorderSize:   *recSize,
		SLO: telemetry.SLOConfig{
			Window:        *sloWindow,
			Latency:       *sloLatency,
			LatencyTarget: *sloLatPct,
			ErrorTarget:   *sloErrPct,
			DegradeTarget: *sloDegPct,
		},
		Logf: log.Printf,
	})
	// Close after run returns (not deferred past os.Exit) so the disk
	// tier's index is flushed even on a failed run.
	if cerr := cache.Close(); cerr != nil {
		log.Printf("ataqcd: cache close: %v", cerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ataqcd: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	srv := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:    addr,
		Handler: srv.Handler(),
		// ReadHeaderTimeout bounds the slow-loris window: a client that
		// dribbles header bytes is cut off before it pins a connection.
		// Request bodies are already bounded by MaxBytesReader and the
		// compile deadline, so no blanket ReadTimeout is needed.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("ataqcd: listening on %s (capacity=%d chaos=%v)",
			addr, srv.Capacity(), cfg.AllowChaos)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Printf("ataqcd: %v received, draining", sig)
	}

	// Stop admitting first (readyz flips to 503, new compiles get a typed
	// 503 draining), give in-flight jobs their drain window, then close the
	// listener with a little headroom for responses already being written.
	drainErr := srv.Shutdown(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return drainErr
	}
	log.Printf("ataqcd: shutdown complete")
	return nil
}
