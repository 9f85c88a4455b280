package main

import (
	"flag"
	"fmt"
	"os"

	"batlife"
	"batlife/internal/obs"
)

// obsFlags registers the shared observability flags: -metrics-addr
// serves live metrics (OpenMetrics text at /metrics, expvar-style JSON
// at /metrics.json) plus net/http/pprof while the command runs, and
// -trace-out writes the solve spans as a JSON array on exit. Either
// flag enables telemetry; with neither, recording is disabled entirely.
type obsFlags struct {
	metricsAddr *string
	traceOut    *string
}

func addObsFlags(fs *flag.FlagSet) obsFlags {
	return obsFlags{
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address while running (e.g. :8080, :0 for an ephemeral port)"),
		traceOut:    fs.String("trace-out", "", "write solve spans as JSON to this file on exit"),
	}
}

// obsRun is the live telemetry of one command invocation: the registry
// to thread through the solver (nil when observability is off), the
// metrics server if one is listening, and the trace destination.
type obsRun struct {
	reg      *batlife.Telemetry
	srv      *obs.Server
	traceOut string
}

// setup builds the telemetry state implied by the flags and starts the
// metrics server when requested. The returned run's registry is nil when
// neither flag is set; call finish once when the command is done.
func (of obsFlags) setup() (*obsRun, error) {
	run := &obsRun{traceOut: *of.traceOut}
	if *of.metricsAddr == "" && *of.traceOut == "" {
		return run, nil
	}
	run.reg = batlife.NewTelemetry()
	if *of.metricsAddr != "" {
		srv, err := obs.Serve(*of.metricsAddr, run.reg)
		if err != nil {
			return nil, fmt.Errorf("metrics server: %w", err)
		}
		run.srv = srv
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}
	return run, nil
}

// finish stops the metrics server and writes the trace file.
func (r *obsRun) finish() error {
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			return err
		}
	}
	if r.traceOut != "" {
		f, err := os.Create(r.traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := r.reg.Tracer().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d spans to %s\n", len(r.reg.Tracer().Spans()), r.traceOut)
	}
	return nil
}
