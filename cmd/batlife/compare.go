package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"batlife/internal/core"
	"batlife/internal/mrm"
	"batlife/internal/performability"
	"batlife/internal/sim"
	"batlife/internal/units"
)

func cmdMean(args []string) error {
	fs := flag.NewFlagSet("mean", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	delta := fs.String("delta", "5mAh", "discretisation step (charge units)")
	horizon := fs.String("horizon", "", "stranded-charge horizon (default 5x the mean lifetime)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := bf.params()
	if err != nil {
		return err
	}
	model, err := wf.kibamrm(p)
	if err != nil {
		return err
	}
	d, err := units.ParseCharge(*delta)
	if err != nil {
		return err
	}
	e, err := core.Build(model, d.AmpereSeconds(), core.Options{})
	if err != nil {
		return err
	}
	mean, err := e.MeanLifetime(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("mean_lifetime\t%.1fs\t%.2fmin\t%.4fh\n", mean, mean/60, mean/3600)

	if p.C < 1 {
		h := 5 * mean
		if *horizon != "" {
			hd, err := units.ParseDuration(*horizon)
			if err != nil {
				return err
			}
			h = hd.Seconds()
		}
		wc, err := e.WastedChargeDistribution(h)
		if err != nil {
			return err
		}
		if wc.AbsorbedMass < 0.99 {
			fmt.Fprintf(os.Stderr, "warning: only %.1f%% depleted by the horizon; stranded figures are conditional\n",
				100*wc.AbsorbedMass)
		}
		bound := (1 - p.C) * p.Capacity
		fmt.Printf("stranded_charge\t%.1fAs\t%.1fmAh\t(%.1f%% of the bound well)\n",
			wc.Mean(), units.Coulombs(wc.Mean()).MilliampHours(), 100*wc.Mean()/bound)
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
	p, err := bf.params()
	if err != nil {
		return err
	}
	model, err := wf.kibamrm(p)
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

	e, err := core.Build(model, d.AmpereSeconds(), core.Options{})
	if err != nil {
		return err
	}
	approx, err := e.LifetimeCDF(times)
	if err != nil {
		return err
	}
	ecdf, err := sim.Lifetimes(model, *seed, sim.Options{Runs: *runs})
	if err != nil {
		return err
	}
	simCurve := ecdf.Eval(times)

	var exact []float64
	//numlint:ignore floatcmp c = 1 is an exact spec-file sentinel selecting the exact solver
	if p.C == 1 {
		cr := mrm.ConstantReward{Chain: model.Workload, Rates: model.Currents, Initial: model.Initial}
		exact, err = performability.EnergyDepletionCDF(cr, p.Capacity, times)
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
			fmt.Printf("%.3f\t%.6f\t%.6f\t%.6f\n", t/3600, approx.EmptyProb[i], simCurve[i], exact[i])
		} else {
			fmt.Printf("%.3f\t%.6f\t%.6f\n", t/3600, approx.EmptyProb[i], simCurve[i])
		}
	}
	fmt.Fprintf(os.Stderr, "approximation: %d states, %d iterations; simulation: %d runs (DKW 95%% band ±%.3f)\n",
		approx.States, approx.Iterations, ecdf.N(), dkwBand(ecdf.N()))
	return nil
}

// dkwBand is the 95% Dvoretzky–Kiefer–Wolfowitz half-width for n runs.
func dkwBand(n int) float64 {
	if n <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(2/0.05) / (2 * float64(n)))
}
