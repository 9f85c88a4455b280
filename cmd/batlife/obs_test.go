package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"batlife"
	"batlife/internal/obs"
)

// TestCmdSweepTraceOut pins the acceptance path: one sweep run with
// -trace-out and -metrics-addr must produce a valid span JSON file
// covering expansion, uniformisation and per-scenario stages.
func TestCmdSweepTraceOut(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-deltas", "720As,360As", "-until", "6h", "-points", "4", "-workers", "2",
		"-trace-out", trace, "-metrics-addr", "127.0.0.1:0",
	}
	if err := cmdSweep(args); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []obs.SpanRecord
	if err := json.NewDecoder(f).Decode(&spans); err != nil {
		t.Fatalf("trace file is not valid span JSON: %v", err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
		if s.DurationNs < 0 || s.StartUnixNs <= 0 {
			t.Errorf("span %s: implausible timing %+v", s.Name, s)
		}
	}
	if byName["sweep.scenario"] != 2 {
		t.Errorf("sweep.scenario spans = %d, want 2", byName["sweep.scenario"])
	}
	for _, stage := range []string{"engine.build", "ctmc.transient"} {
		if byName[stage] != 2 {
			t.Errorf("%s spans = %d, want 2 (one per Δ); got %v", stage, byName[stage], byName)
		}
	}
}

// TestCmdCDFTraceOut checks the cdf command writes the Solver's solve,
// build and transient spans too.
func TestCmdCDFTraceOut(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	args := []string{
		"-workload", "onoff", "-capacity", "7200As", "-c", "1", "-k", "0",
		"-delta", "720As", "-until", "6h", "-points", "4",
		"-trace-out", trace,
	}
	if err := cmdCDF(args); err != nil {
		t.Fatalf("cdf: %v", err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []obs.SpanRecord
	if err := json.NewDecoder(f).Decode(&spans); err != nil {
		t.Fatalf("trace file is not valid span JSON: %v", err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	if byName["solver.solve"] != 1 || byName["engine.build"] != 1 || byName["ctmc.transient"] != 1 || byName["core.build"] != 0 {
		t.Errorf("spans = %v, want one solver.solve, engine.build and ctmc.transient each", byName)
	}
}

// TestLiveMetricsEndpoint drives the same obsFlags wiring the commands
// use and scrapes the live /metrics endpoint mid-run: engine cache
// hit/miss counters and the uniformisation iteration total must be
// visible.
func TestLiveMetricsEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	of := addObsFlags(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	run, err := of.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := run.finish(); err != nil {
			t.Error(err)
		}
	}()

	w, err := batlife.OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	b := batlife.Battery{CapacityAs: 7200, AvailableFraction: 1}
	solver := batlife.NewSolver(batlife.SolverOptions{Telemetry: run.reg})
	times := []float64{10000, 15000}
	// Two queries on one model: the first builds it (miss); the second
	// uses a distinct time grid, so it skips the result memo but hits the
	// engine cache.
	if _, err := solver.LifetimeDistribution(b, w, times, batlife.AnalysisOptions{Delta: 720}); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.LifetimeDistribution(b, w, []float64{12000}, batlife.AnalysisOptions{Delta: 720}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + run.srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Counter samples are "name value" lines of the text exposition.
	counters := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || !strings.HasSuffix(name, "_total") {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		counters[name] = n
	}
	if counters["engine_cache_misses_total"] != 1 {
		t.Errorf("engine_cache_misses_total = %d, want 1", counters["engine_cache_misses_total"])
	}
	if counters["engine_cache_hits_total"] != 1 {
		t.Errorf("engine_cache_hits_total = %d, want 1", counters["engine_cache_hits_total"])
	}
	if counters["ctmc_uniformization_iterations_total"] <= 0 {
		t.Errorf("ctmc_uniformization_iterations_total = %d, want > 0",
			counters["ctmc_uniformization_iterations_total"])
	}

	// The JSON exposition is gone: /metrics is the one metrics view.
	resp, err = http.Get("http://" + run.srv.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/metrics.json: status %d, want 404", resp.StatusCode)
	}
}
