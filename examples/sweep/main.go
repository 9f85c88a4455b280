// Sweep: evaluate a whole grid of scenarios in one call with the
// reusable Solver — here the paper's Δ-refinement study (Figure 8):
// the same battery and workload solved at three discretisation steps,
// in parallel, with cached model reuse across queries.
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"batlife"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	battery := batlife.PaperBattery()
	w, err := batlife.OnOffWorkload(1, 1, 0.96)
	if err != nil {
		log.Fatal(err)
	}
	times := []float64{10000, 12500, 15000, 17500, 20000}

	// One scenario per Δ. Scenarios can also vary the battery, the
	// workload or the time grid — anything that defines a query.
	var scenarios []batlife.Scenario
	for _, delta := range []float64{100, 50, 25} {
		scenarios = append(scenarios, batlife.Scenario{
			Name:     fmt.Sprintf("delta=%gAs", delta),
			Battery:  battery,
			Workload: w,
			DeltaAs:  delta,
			Times:    times,
		})
	}

	solver := batlife.NewSolver(batlife.SolverOptions{})
	results, err := solver.Sweep(scenarios, batlife.SweepOptions{
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "solved %d/%d\n", done, total)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Results come back in input order; per-scenario failures are
	// reported on the result, not as a sweep error.
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "t (s)")
	for _, r := range results {
		fmt.Fprintf(tw, "\t%s", r.Name)
	}
	fmt.Fprintln(tw)
	for i, t := range times {
		fmt.Fprintf(tw, "%.0f", t)
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprint(tw, "\terror")
				continue
			}
			fmt.Fprintf(tw, "\t%.4f", r.Distribution.EmptyProb[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	// The solver's caches persist across calls: re-asking any of the
	// swept questions is now effectively free, and related queries
	// (the mean lifetime on the same grid) reuse the expanded CTMC.
	mean, err := solver.ExpectedLifetime(battery, w, batlife.AnalysisOptions{Delta: 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpected lifetime (delta=25As): %.0f s (%.1f h), %d model(s) cached\n",
		mean, mean/3600, solver.Stats().Entries)
}
