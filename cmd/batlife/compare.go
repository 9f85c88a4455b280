package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"batlife"
	"batlife/internal/units"
)

func cmdMean(args []string) error {
	fs := flag.NewFlagSet("mean", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	delta := fs.String("delta", "5mAh", "discretisation step (charge units)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := bf.battery()
	if err != nil {
		return err
	}
	w, err := wf.public()
	if err != nil {
		return err
	}
	d, err := units.ParseCharge(*delta)
	if err != nil {
		return err
	}
	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	opts := batlife.AnalysisOptions{Delta: d.AmpereSeconds()}
	mean, err := solver.ExpectedLifetime(b, w, opts)
	if err != nil {
		return err
	}
	fmt.Printf("mean_lifetime\t%.1fs\t%.2fmin\t%.4fh\n", mean, mean/60, mean/3600)

	if b.AvailableFraction < 1 {
		sc, err := solver.StrandedCharge(b, w, opts)
		if err != nil {
			return err
		}
		fmt.Printf("stranded_charge\t%.1fAs\t%.1fmAh\t(%.1f%% of the bound well)\n",
			sc.MeanAs, units.Coulombs(sc.MeanAs).MilliampHours(), 100*sc.FractionOfBound)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	delta := fs.String("delta", "5mAh", "discretisation step (charge units)")
	runs := fs.Int("runs", 1000, "simulation runs")
	seed := fs.Int64("seed", 1, "simulation seed")
	until := fs.String("until", "30h", "evaluation horizon")
	points := fs.Int("points", 15, "number of evaluation points")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := bf.battery()
	if err != nil {
		return err
	}
	w, err := wf.public()
	if err != nil {
		return err
	}
	d, err := units.ParseCharge(*delta)
	if err != nil {
		return err
	}
	times, err := timeGrid(*until, *points)
	if err != nil {
		return err
	}

	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	approx, err := solver.LifetimeDistribution(b, w, times, batlife.AnalysisOptions{Delta: d.AmpereSeconds()})
	if err != nil {
		return err
	}
	samples, err := batlife.Simulate(b, w, batlife.SimulateOptions{Runs: *runs, Seed: *seed})
	if err != nil {
		return err
	}
	simCurve := samples.CDF(times)

	var exact *batlife.Distribution
	//numlint:ignore floatcmp c = 1 is an exact spec-file sentinel selecting the exact solver
	if b.AvailableFraction == 1 {
		exact, err = solver.ExactCDF(b, w, times, batlife.AnalysisOptions{})
		if err != nil {
			return err
		}
	}

	if exact != nil {
		fmt.Println("t_h\tapprox\tsimulation\texact")
	} else {
		fmt.Println("t_h\tapprox\tsimulation")
	}
	for i, t := range times {
		if exact != nil {
			fmt.Printf("%.3f\t%.6f\t%.6f\t%.6f\n", t/3600, approx.EmptyProb[i], simCurve[i], exact.EmptyProb[i])
		} else {
			fmt.Printf("%.3f\t%.6f\t%.6f\n", t/3600, approx.EmptyProb[i], simCurve[i])
		}
	}
	fmt.Fprintf(os.Stderr, "approximation: %d states, %d iterations; simulation: %d runs (DKW 95%% band ±%.3f)\n",
		approx.States, approx.Iterations, samples.N(), dkwBand(samples.N()))
	return nil
}

// dkwBand is the 95% Dvoretzky–Kiefer–Wolfowitz half-width for n runs.
func dkwBand(n int) float64 {
	if n <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(2/0.05) / (2 * float64(n)))
}
