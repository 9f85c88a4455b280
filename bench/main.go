// Command bench is the end-to-end benchmark of the batlifed solve
// service on the paper's Fig. 8 and Fig. 10 models. It starts the real
// daemon stack in-process behind a loopback HTTP server, drives it from
// one load generator over at most one connection per CPU, checks every
// answer against golden CDFs, and prints the end-to-end metrics of each
// workload — or, with -trace 1, per-layer metrics from replaying the
// requests through each layer's public functions. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1 [-workload NAME] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -write-golden
//	bash bench/run.sh -compare PARENT.jsonl CHANGE.jsonl...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (fig8-cold, fig10-cold, sweep-grouped, replay); empty runs all four")
		seed      = fs.Int64("seed", 1, "seed the request bodies are generated from")
		secs      = fs.Float64("seconds", 20, "measured seconds per workload run")
		trace     = fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and DIR/trace-<workload>.json")
		traceDir  = fs.String("trace-dir", ".bench_build/traces", "directory the traced pass writes its spans to")
		out       = fs.String("out", "", "append each run's result as one JSON line to this file")
		writeGold = fs.Bool("write-golden", false, "solve every workload's model set over its full time lattice and write the golden answers to bench/golden")
		compare   = fs.Bool("compare", false, "compare runs written with -out, with BENCHMARK.json's bounds: -compare PARENT.jsonl CHANGE.jsonl...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return compareRuns("BENCHMARK.json", fs.Args(), stdout, stderr)
	case *writeGold:
		if err := writeGolden("bench/golden"); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || !(*secs > 0) {
		fs.Usage()
		return 2
	}
	list := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		list = []workload{w}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}

	final := line{Correct: true, Metrics: map[string]lineValue{}}
	for _, w := range list {
		g, err := loadGolden(w.name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		r, err := runWorkload(w, *seed, options{dur: time.Duration(*secs * float64(time.Second)), trace: *trace == 1, golden: g})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.keep(defs)
		if r.tracer != nil {
			if err := r.tracer.write(*traceDir, w.name, *seed); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if *out != "" {
			if err := appendJSON(*out, r); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		printRun(stdout, r, defs)
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for _, d := range defs {
			key := d.name
			if len(list) > 1 {
				key = w.name + "/" + d.name
			}
			final.Metrics[key] = lineValue{Value: r.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	data, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// line is the result object printed as the last line of standard
// output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// keep drops every metric outside defs, so a run records exactly what it
// prints.
func (r *result) keep(defs []metricDef) {
	kept := map[string]value{}
	for _, d := range defs {
		kept[d.name] = r.Metrics[d.name]
	}
	r.Metrics = kept
}

func printRun(w io.Writer, r *result, defs []metricDef) {
	fmt.Fprintf(w, "%s seed=%d correct=%t attempted=%d failed=%d\n", r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-24s %-14.6g %-6s n=%d\n", d.name, v.Value, d.unit, v.N)
	}
	var notes []string
	for name := range r.Info {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		v := r.Info[name]
		fmt.Fprintf(w, "  %-24s %-14.6g %-6s n=%d (not gated)\n", name, v.Value, v.Unit, v.N)
	}
}

func appendJSON(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
