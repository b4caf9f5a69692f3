// Command ddvis serves the installation-free visualization web tool
// (Sec. IV of the paper): open the printed URL in a browser to load
// algorithms, step through DD-based simulation with measurement
// dialogs, and verify two circuits against each other.
//
// The server is hardened for shared deployments: request bodies,
// circuit sizes, and diagram growth are bounded, idle sessions are
// reaped, every request carries a deadline, and SIGINT/SIGTERM drain
// in-flight requests before exiting. See README "Operational limits".
//
// Usage:
//
//	ddvis [-addr :8080] [-admin-addr 127.0.0.1:8081] [-seed 1]
//	      [-max-qubits 24] [-max-ops 4096]
//	      [-max-nodes 250000] [-max-body-bytes 1048576]
//	      [-session-ttl 30m] [-max-sessions 256] [-request-timeout 15s]
//	      [-noisy-workers 0]
//	      [-spill-dir /var/lib/ddvis/spill] [-spill-max-bytes 67108864]
//	      [-sample-interval 5s] [-live-stream]
//
// With -spill-dir set, sessions evicted by the idle TTL or the LRU cap
// are spilled to disk as checksummed snapshots and transparently
// restored on their next request instead of answering 410 Gone; see
// README "Durability & recovery".
//
// With -sample-interval > 0 (the default), an in-process time-series
// store sweeps every metric plus per-session resource accounts on
// each tick, powering /readyz SLO burn detection, the watchdog, the
// /debug/live SSE stream, and /debug/sessions/top; see README "Live
// telemetry & health".
//
// Every session's diagram is profiled when telemetry reads it and it
// has served a request since its last profile: per-level node
// occupancy, sharing factor, and identity-padding fraction feed the
// dd_shape_* metric families, the per-session timelines behind
// GET /debug/sessions/{id}/shape, and the node-blowup watchdog rule;
// see README "Diagram structure profiling".
//
// When -admin-addr is set, a second listener serves the operational
// endpoints (/healthz, /readyz, /metrics, /debug/vars, /debug/pprof/…,
// /debug/sessions/top, and the one-shot /debug/bundle tar.gz) so
// profiling never rides on the public port; bind it to localhost or a
// cluster-internal interface. /metrics is also served on the public
// listener either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quantumdd/internal/obs"
	"quantumdd/internal/web"
)

func main() {
	def := web.DefaultConfig()
	addr := flag.String("addr", ":8080", "listen address")
	adminAddr := flag.String("admin-addr", "", "optional admin listener for /metrics, /healthz, /debug/pprof and /debug/vars (empty = disabled)")
	seed := flag.Int64("seed", def.Seed, "seed for sampled measurement outcomes")
	maxQubits := flag.Int("max-qubits", def.MaxQubits, "reject circuits wider than this many qubits (0 = unlimited)")
	maxOps := flag.Int("max-ops", def.MaxOps, "reject circuits with more operations than this (0 = unlimited)")
	maxNodes := flag.Int("max-nodes", def.MaxNodes, "per-session decision-diagram node budget (0 = unlimited)")
	maxBody := flag.Int64("max-body-bytes", def.MaxBodyBytes, "maximum request body size in bytes (0 = unlimited)")
	sessionTTL := flag.Duration("session-ttl", def.SessionTTL, "evict sessions idle longer than this (0 = never)")
	maxSessions := flag.Int("max-sessions", def.MaxSessions, "LRU cap on live sessions per kind (0 = unlimited)")
	reqTimeout := flag.Duration("request-timeout", def.RequestTimeout, "per-request deadline, bounds fast-forward loops (0 = none)")
	noisyWorkers := flag.Int("noisy-workers", def.NoisyWorkers, "trajectory pool width for /api/noisy ensembles (0 = GOMAXPROCS, 1 = sequential; results are bit-identical either way)")
	spillDir := flag.String("spill-dir", "", "directory for durable session snapshots; evicted sessions spill here and are transparently restored on their next request (empty = disabled)")
	spillMaxBytes := flag.Int64("spill-max-bytes", 0, "byte cap on the spill directory, oldest snapshots evicted first (0 = unbounded)")
	sampleInterval := flag.Duration("sample-interval", def.SampleInterval, "telemetry sweep interval for the in-process time-series store (0 = telemetry off)")
	liveStream := flag.Bool("live-stream", def.LiveStream, "serve the /debug/live SSE telemetry stream (requires telemetry)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := web.NewServerWithConfig(web.Config{
		Seed:           *seed,
		MaxQubits:      *maxQubits,
		MaxOps:         *maxOps,
		MaxNodes:       *maxNodes,
		MaxBodyBytes:   *maxBody,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		RequestTimeout: *reqTimeout,
		NoisyWorkers:   *noisyWorkers,
		SpillDir:       *spillDir,
		SpillMaxBytes:  *spillMaxBytes,
		SampleInterval: *sampleInterval,
		LiveStream:     *liveStream,
		Logger:         logger,
	})
	defer srv.Close()

	writeTimeout := time.Minute
	if *reqTimeout > 0 {
		// Leave headroom so the per-request deadline (which yields a
		// JSON error) fires before the connection is cut.
		writeTimeout = *reqTimeout + 5*time.Second
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	var admin *http.Server
	if *adminAddr != "" {
		adminMux := obs.AdminMuxWith(srv.MetricsHandler())
		// The debug bundle blocks for its CPU-profile window, so it
		// lives on the admin listener only, next to pprof.
		adminMux.Handle("GET /debug/bundle", srv.BundleHandler())
		// Readiness (with component probes and SLO burn) and the
		// per-session resource ranking are operational surfaces too —
		// AdminMuxWith's /healthz stays the bare liveness check.
		adminMux.Handle("GET /readyz", srv.ReadyzHandler())
		adminMux.Handle("GET /debug/sessions/top", srv.SessionsTopHandler())
		admin = &http.Server{
			Addr:              *adminAddr,
			Handler:           adminMux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The admin listener is auxiliary: losing it should not
				// take down the tool, but the operator must know.
				logger.Error("admin listener failed", "addr", *adminAddr, "error", err)
			}
		}()
	}

	display := *addr
	if strings.HasPrefix(display, ":") {
		display = "localhost" + display
	}
	fmt.Printf("visualizing decision diagrams for quantum computing\n")
	fmt.Printf("serving on http://%s\n", display)
	if admin != nil {
		fmt.Printf("admin endpoints (metrics, pprof) on http://%s\n", *adminAddr)
	}

	select {
	case err := <-errc:
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down", "drain", "10s")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if admin != nil {
			if err := admin.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				logger.Error("admin shutdown failed", "error", err)
			}
		}
		if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("shutdown failed", "error", err)
			os.Exit(1)
		}
	}
}
