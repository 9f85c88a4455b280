package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"batlife"
	"batlife/internal/units"
)

// cmdSweep evaluates a grid of scenarios — the cartesian product of the
// requested capacities and discretisation steps over one workload — in
// parallel through the public Solver, and prints the lifetime CDFs as
// one wide table (one column per scenario). This is how the paper's
// Δ-refinement figures (e.g. Figure 8) are produced in one run instead
// of one `batlife cdf` invocation per curve.
func cmdSweep(args []string) (retErr error) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	of := addObsFlags(fs)
	deltas := fs.String("deltas", "10mAh,5mAh,2.5mAh", "comma-separated discretisation steps (charge units)")
	capacities := fs.String("capacities", "", "comma-separated capacities to sweep (default: just -capacity)")
	until := fs.String("until", "30h", "evaluation horizon")
	points := fs.Int("points", 30, "number of evaluation points")
	workers := fs.Int("workers", 0, "concurrent scenarios (0: number of CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, err := of.setup()
	if err != nil {
		return err
	}
	defer func() {
		if err := run.finish(); err != nil && retErr == nil {
			retErr = err
		}
	}()
	reg := run.reg
	b, err := bf.battery()
	if err != nil {
		return err
	}
	w, err := wf.public()
	if err != nil {
		return err
	}
	times, err := timeGrid(*until, *points)
	if err != nil {
		return err
	}

	capSpecs := []string{*bf.capacity}
	if *capacities != "" {
		capSpecs = strings.Split(*capacities, ",")
	}
	deltaSpecs := strings.Split(*deltas, ",")

	var scenarios []batlife.Scenario
	for _, cs := range capSpecs {
		cap_, err := units.ParseCharge(strings.TrimSpace(cs))
		if err != nil {
			return fmt.Errorf("capacity %q: %w", cs, err)
		}
		for _, ds := range deltaSpecs {
			d, err := units.ParseCharge(strings.TrimSpace(ds))
			if err != nil {
				return fmt.Errorf("delta %q: %w", ds, err)
			}
			name := fmt.Sprintf("Δ=%s", strings.TrimSpace(ds))
			if len(capSpecs) > 1 {
				name = fmt.Sprintf("C=%s %s", strings.TrimSpace(cs), name)
			}
			scenarios = append(scenarios, batlife.Scenario{
				Name: name,
				Battery: batlife.Battery{
					CapacityAs:        cap_.AmpereSeconds(),
					AvailableFraction: b.AvailableFraction,
					FlowRate:          b.FlowRate,
				},
				Workload: w,
				DeltaAs:  d.AmpereSeconds(),
				Times:    times,
			})
		}
	}

	solver := batlife.NewSolver(batlife.SolverOptions{
		ModelCacheCapacity: len(scenarios),
		Telemetry:          reg,
	})
	results, err := solver.Sweep(scenarios, batlife.SweepOptions{
		Workers: *workers,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d scenarios", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})
	if err != nil {
		return err
	}
	var failed int
	var firstErr error
	for _, r := range results {
		if r.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.Err
			}
			fmt.Fprintf(os.Stderr, "batlife: scenario %s: %v\n", r.Name, bare{r.Err})
		}
	}
	if failed == len(results) {
		// Wrap the first failure so sentinel classes (ErrBadArgument,
		// ErrIterationLimit) survive into the process exit code.
		return fmt.Errorf("all %d scenarios failed: %w", failed, bare{firstErr})
	}

	header := []string{"t_s", "t_h"}
	for _, r := range results {
		if r.Err == nil {
			header = append(header, r.Name)
		}
	}
	fmt.Println(strings.Join(header, "\t"))
	for i, t := range times {
		row := []string{fmt.Sprintf("%.1f", t), fmt.Sprintf("%.3f", t/3600)}
		for _, r := range results {
			if r.Err == nil {
				row = append(row, fmt.Sprintf("%.6f", r.Distribution.EmptyProb[i]))
			}
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	if reg != nil {
		st := solver.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions, %d models retained\n",
			st.Hits, st.Misses, st.Evictions, st.Entries)
	}
	return nil
}
