// Command haste-serve runs the resident scheduling service: an HTTP JSON
// API that schedules HASTE instances with the offline TabularGreedy and
// caches compiled problems across requests (package serve).
//
// Usage:
//
//	haste-serve [--addr :8080] [--cache 64] [--concurrency N] [--queue 64]
//	            [--timeout 30s] [--drain-timeout 10s] [--core-workers 1]
//	            [--max-body 8388608] [--max-samples 1024] [--max-sessions 64]
//	            [--debug-addr host:port] [--log-level info] [--log-format text]
//
// Observability: --log-level/--log-format configure the structured access
// and session-lifecycle log on stderr (text or json; the level gates what
// slog emits). --debug-addr mounts net/http/pprof and /debug/vars on a
// separate listener so profiling never shares a port — or a load
// balancer — with the service traffic. /metrics speaks both JSON and the
// Prometheus text format (content negotiation), and any schedule or
// session request with "trace": true returns its per-phase breakdown.
//
// Endpoints: POST /v1/schedule, GET /healthz, GET /metrics, plus the
// incremental session API — POST /v1/session, GET/PATCH/DELETE
// /v1/session/{id}, GET /v1/session/{id}/subscribe (SSE) — which keeps a
// compiled problem resident per session and turns task churn into delta
// patches with warm-started re-solves. On SIGTERM or SIGINT the service
// drains gracefully: /healthz flips to 503, new schedule requests and
// session work are refused, in-flight requests run to completion and
// subscriber streams close (up to --drain-timeout), then the listener
// closes and the process exits 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"haste/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "haste-serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("haste-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cache := fs.Int("cache", 64, "compiled-problem cache size (instances)")
	concurrency := fs.Int("concurrency", 0, "worker slots (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "request queue depth beyond the worker slots")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request wall-clock timeout")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	coreWorkers := fs.Int("core-workers", 1, "core.Options.Workers per scheduling run: the component-pool bound of sharded solves")
	maxBody := fs.Int64("max-body", 8<<20, "request body limit, bytes")
	maxSamples := fs.Int("max-samples", 1024, "Monte-Carlo sample cap per request")
	maxSessions := fs.Int("max-sessions", 64, "concurrently open incremental sessions")
	debugAddr := fs.String("debug-addr", "", "separate listener for net/http/pprof and /debug/vars (off when empty)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format on stderr: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	svc := serve.New(serve.Config{
		CacheSize:      *cache,
		MaxConcurrent:  *concurrency,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxSamples:     *maxSamples,
		MaxSessions:    *maxSessions,
		CoreWorkers:    *coreWorkers,
		Logger:         logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "haste-serve listening on %s\n", ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg := &http.Server{Handler: debugMux()}
		go func() { _ = dbg.Serve(dln) }()
		defer dbg.Close()
		fmt.Fprintf(out, "haste-serve debug listening on %s\n", dln.Addr())
	}

	httpSrv := &http.Server{Handler: svc}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	fmt.Fprintln(out, "haste-serve: draining")
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m := svc.Metrics()
	fmt.Fprintf(out, "haste-serve: drained (%d requests, %d scheduled, cache %d hits / %d misses)\n",
		m.Requests, m.Scheduled, m.Cache.Hits, m.Cache.Misses)
	return nil
}

// buildLogger assembles the stderr slog logger from the CLI flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown --log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown --log-format %q (want text or json)", format)
	}
}

// debugMux mounts the pprof handlers and the expvar document the way
// net/http/pprof would on the default mux, but on a dedicated mux so the
// debug listener exposes nothing else.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
