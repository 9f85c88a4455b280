// Command batlifed is the battery-lifetime solve daemon: a long-running
// HTTP/JSON service fronting a shared batlife.Solver, so repeated and
// concurrent analyses share one model cache, result memo and admission
// policy instead of each paying cold-start construction.
//
// Endpoints (wire schema in internal/api, semantics in internal/service):
//
//	POST /v1/solve      lifetime CDF ("cdf", default), exact CDF
//	                    ("exact") or expected lifetime ("mean")
//	POST /v1/sweep      scenario grid; ?stream=1 returns NDJSON progress
//	GET  /v1/jobs/{id}  status/result of a live or retained job
//	GET  /healthz       liveness (always ok while serving)
//	GET  /readyz        readiness (503 once draining)
//	GET  /metrics       Prometheus/OpenMetrics text exposition
//	GET  /metrics.json  expvar-style metrics JSON
//	GET  /debug/traces  recent request traces (JSON span trees;
//	                    ?fmt=text renders a waterfall), with
//	                    net/http/pprof under /debug/pprof/
//
// Every request runs under a trace: an inbound W3C traceparent header
// is honoured (the daemon joins the caller's trace) and otherwise a
// root trace is minted; the trace ID is echoed in the
// X-Batlife-Trace-Id response header, stamped on log lines, and
// reported by GET /v1/jobs/{id} (add ?trace=1 for the full span tree).
//
// Identical concurrent requests coalesce onto one job (content-addressed
// job IDs), overload is refused up front (429) instead of queued without
// bound, and SIGINT/SIGTERM triggers a graceful drain: stop admitting
// (503 + not-ready), finish inflight jobs, then exit.
//
// Exit status: 0 after a clean drain, 1 on serve/internal errors, 2 on
// bad flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"batlife"
	"batlife/internal/obs"
	"batlife/internal/service"
)

const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sigs, nil, os.Stderr))
}

// run parses flags, serves until a signal arrives, drains and exits.
// ready, when non-nil, receives the bound listen address once the
// server accepts connections (tests use it with -addr :0).
func run(args []string, sigs <-chan os.Signal, ready chan<- string, stderr io.Writer) int {
	fs := flag.NewFlagSet("batlifed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr           = fs.String("addr", ":8418", "listen address (host:port; :0 picks an ephemeral port)")
		maxInflight    = fs.Int("max-inflight", 0, "max concurrently running jobs (0 = NumCPU)")
		queueDepth     = fs.Int("queue-depth", -1, "admitted jobs allowed to wait for a run slot (-1 = 2x max-inflight, 0 = none)")
		defaultTimeout = fs.Duration("default-timeout", time.Minute, "per-job deadline for requests without timeout_seconds")
		maxTimeout     = fs.Duration("max-timeout", 10*time.Minute, "upper clamp on requested per-job deadlines")
		jobRetention   = fs.Int("job-retention", 128, "finished jobs kept addressable via /v1/jobs/{id}")
		sweepWorkers   = fs.Int("sweep-workers", 0, "upper clamp on per-request sweep parallelism (0 = NumCPU)")
		modelCache     = fs.Int("model-cache", 32, "expanded CTMCs retained across requests")
		resultCache    = fs.Int("result-cache", 256, "memoised analysis results retained across requests")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for inflight jobs before giving up")
		traceOut       = fs.String("trace-out", "", "write solve spans as JSON to this file on exit")
		traceRetention = fs.Int("trace-retention", obs.DefaultMaxSpans, "completed spans retained for /debug/traces (ring; oldest evicted first)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "batlifed: unexpected arguments: %v\n", fs.Args())
		return exitUsage
	}

	reg := batlife.NewTelemetry()
	reg.SetLogger(obs.NewLogger(stderr, obsLogLevel()))
	reg.Tracer().SetMaxSpans(*traceRetention)
	logger := reg.Logger()

	svc := service.New(service.Config{
		Solver: batlife.NewSolver(batlife.SolverOptions{
			ModelCacheCapacity:  *modelCache,
			ResultCacheCapacity: *resultCache,
			Telemetry:           reg,
		}),
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		JobRetention:   *jobRetention,
		SweepWorkers:   *sweepWorkers,
		Obs:            reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "batlifed: listen %s: %v\n", *addr, err)
		return exitInternal
	}
	srv := &http.Server{
		Handler:           svc.Routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("batlifed serving", "addr", ln.Addr().String())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	code := exitOK
	select {
	case sig := <-sigs:
		logger.Info("signal received, draining", "signal", fmt.Sprint(sig), "timeout", drainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := svc.Drain(drainCtx); err != nil {
			logger.Warn("drain expired with jobs inflight", "err", err.Error())
			code = exitInternal
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown", "err", err.Error())
			code = exitInternal
		}
		cancel()
		<-serveErr // Serve has returned http.ErrServerClosed
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "batlifed: serve: %v\n", err)
			code = exitInternal
		}
	}

	// Flush telemetry: drain is complete, so the span set is final.
	if *traceOut != "" {
		if err := writeTrace(*traceOut, reg); err != nil {
			fmt.Fprintf(stderr, "batlifed: %v\n", err)
			code = exitInternal
		}
	}
	logger.Info("batlifed stopped")
	return code
}

// obsLogLevel reads BATLIFED_LOG ("debug", "info", "warn", "error");
// unset or unknown selects info.
func obsLogLevel() slog.Level {
	switch os.Getenv("BATLIFED_LOG") {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// writeTrace dumps the tracer's spans to path.
func writeTrace(path string, reg *batlife.Telemetry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := reg.Tracer().WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
