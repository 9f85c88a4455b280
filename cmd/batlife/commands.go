package main

import (
	"flag"
	"fmt"
	"os"

	"batlife"
	"batlife/internal/kibam"
	"batlife/internal/report"
	"batlife/internal/units"
)

// batteryFlags registers the common battery flags on fs.
type batteryFlags struct {
	capacity *string
	c        *float64
	k        *float64
}

func addBatteryFlags(fs *flag.FlagSet) batteryFlags {
	return batteryFlags{
		capacity: fs.String("capacity", "2000mAh", "battery capacity (e.g. 800mAh, 7200As)"),
		c:        fs.Float64("c", 0.625, "KiBaM available-charge fraction in (0,1]"),
		k:        fs.Float64("k", 4.5e-5, "KiBaM flow constant in 1/s"),
	}
}

func (bf batteryFlags) params() (kibam.Params, error) {
	cap_, err := units.ParseCharge(*bf.capacity)
	if err != nil {
		return kibam.Params{}, err
	}
	p := kibam.Params{Capacity: cap_.AmpereSeconds(), C: *bf.c, K: *bf.k}
	if err := p.Validate(); err != nil {
		return kibam.Params{}, err
	}
	return p, nil
}

// battery is params as the facade's Battery.
func (bf batteryFlags) battery() (batlife.Battery, error) {
	p, err := bf.params()
	if err != nil {
		return batlife.Battery{}, err
	}
	return batlife.Battery{CapacityAs: p.Capacity, AvailableFraction: p.C, FlowRate: p.K}, nil
}

// timeGrid builds an evaluation grid from -until and -points.
func timeGrid(until string, points int) ([]float64, error) {
	d, err := units.ParseDuration(until)
	if err != nil {
		return nil, err
	}
	if points < 2 {
		return nil, fmt.Errorf("need at least 2 points, got %d", points)
	}
	horizon := d.Seconds()
	if horizon <= 0 {
		return nil, fmt.Errorf("horizon must be positive, got %v", horizon)
	}
	times := make([]float64, points)
	for i := range times {
		times[i] = horizon * float64(i+1) / float64(points)
	}
	return times, nil
}

func cmdLifetime(args []string) error {
	fs := flag.NewFlagSet("lifetime", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	current := fs.String("current", "0.96A", "load current")
	freq := fs.Float64("freq", 0, "square-wave frequency in Hz (0: constant load)")
	duty := fs.Float64("duty", 0.5, "square-wave duty cycle")
	cutoff := fs.Float64("cutoff", 0, "cut-off voltage in volt (0: run to charge depletion); uses a typical Li-ion voltage curve")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := bf.params()
	if err != nil {
		return err
	}
	cur, err := units.ParseCurrent(*current)
	if err != nil {
		return err
	}
	var profile kibam.Profile = kibam.ConstantLoad(cur.Amperes())
	if *freq > 0 {
		profile = kibam.SquareWave{On: cur.Amperes(), Frequency: *freq, Duty: *duty}
	}
	if *cutoff > 0 {
		res, err := p.LifetimeToCutoff(kibam.TypicalLiIon(), profile, *cutoff)
		if err != nil {
			return err
		}
		reason := "charge depleted"
		if res.VoltageLimited {
			reason = "voltage cut-off"
		}
		fmt.Printf("lifetime\t%.1fs\t%.2fmin\t%.4fh\t(%s)\n",
			res.Lifetime, res.Lifetime/60, res.Lifetime/3600, reason)
		return nil
	}
	life, err := p.Lifetime(profile)
	if err != nil {
		return err
	}
	fmt.Printf("lifetime\t%.1fs\t%.2fmin\t%.4fh\n", life, life/60, life/3600)
	delivered, err := p.DeliveredCharge(profile)
	if err != nil {
		return err
	}
	fmt.Printf("delivered\t%.1fAs\t%.1fmAh\t(%.1f%% of capacity)\n",
		delivered, units.Coulombs(delivered).MilliampHours(), 100*delivered/p.Capacity)
	return nil
}

func cmdCDF(args []string) (retErr error) {
	fs := flag.NewFlagSet("cdf", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	of := addObsFlags(fs)
	delta := fs.String("delta", "5mAh", "discretisation step (charge units)")
	until := fs.String("until", "30h", "evaluation horizon")
	points := fs.Int("points", 30, "number of evaluation points")
	plot := fs.Bool("plot", false, "render an ASCII chart instead of a table")
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
	solver := batlife.NewSolver(batlife.SolverOptions{Telemetry: run.reg})
	defer solver.Close()
	var rep batlife.SolveReport
	res, err := solver.LifetimeDistribution(b, w, times, batlife.AnalysisOptions{Delta: d.AmpereSeconds(), Report: &rep})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "expanded CTMC: %d states, %d transitions\n", rep.States, rep.Transitions)
	if *plot {
		hours := make([]float64, len(res.Times))
		for i, t := range res.Times {
			hours[i] = t / 3600
		}
		table := &report.Table{
			XName:  "t (hours)",
			X:      hours,
			Names:  []string{"Pr[battery empty]"},
			Series: [][]float64{res.EmptyProb},
		}
		chart, err := table.Chart(report.ChartOptions{YMin: 0, YMax: 1})
		if err != nil {
			return err
		}
		fmt.Print(chart)
	} else {
		fmt.Println("t_s\tt_h\tPr_empty")
		for i, t := range res.Times {
			fmt.Printf("%.1f\t%.3f\t%.6f\n", t, t/3600, res.EmptyProb[i])
		}
	}
	fmt.Fprintf(os.Stderr, "%d uniformisation iterations (rate %.4g)\n", rep.Iterations, rep.UniformizationRate)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	wf := addWorkloadFlags(fs)
	runs := fs.Int("runs", 1000, "number of simulation runs")
	seed := fs.Int64("seed", 1, "random seed")
	until := fs.String("until", "30h", "evaluation horizon")
	points := fs.Int("points", 30, "number of evaluation points")
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
	times, err := timeGrid(*until, *points)
	if err != nil {
		return err
	}
	samples, err := batlife.Simulate(b, w, batlife.SimulateOptions{Runs: *runs, Seed: *seed})
	if err != nil {
		return err
	}
	mean, err := samples.Mean()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d runs: mean lifetime %.1f s (%.2f h), %d censored\n",
		samples.N(), mean, mean/3600, samples.Censored())
	fmt.Println("t_s\tt_h\tPr_empty")
	for i, pr := range samples.CDF(times) {
		fmt.Printf("%.1f\t%.3f\t%.6f\n", times[i], times[i]/3600, pr)
	}
	return nil
}

func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	capacity := fs.String("capacity", "2000mAh", "battery capacity")
	c := fs.Float64("c", 0.625, "KiBaM available-charge fraction")
	current := fs.String("current", "0.96A", "constant calibration load")
	target := fs.String("target", "90min", "measured lifetime under the calibration load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cap_, err := units.ParseCharge(*capacity)
	if err != nil {
		return err
	}
	cur, err := units.ParseCurrent(*current)
	if err != nil {
		return err
	}
	tgt, err := units.ParseDuration(*target)
	if err != nil {
		return err
	}
	k, err := kibam.CalibrateK(cap_.AmpereSeconds(), *c, cur.Amperes(), tgt.Seconds())
	if err != nil {
		return err
	}
	fmt.Printf("k\t%.6e\t/s\n", k)
	check, err := kibam.Params{Capacity: cap_.AmpereSeconds(), C: *c, K: k}.
		Lifetime(kibam.ConstantLoad(cur.Amperes()))
	if err != nil {
		return err
	}
	fmt.Printf("lifetime_check\t%.1fs\t(target %.1fs)\n", check, tgt.Seconds())
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	bf := addBatteryFlags(fs)
	current := fs.String("current", "0.96A", "on-phase load current")
	freq := fs.Float64("freq", 0.001, "square-wave frequency in Hz")
	interval := fs.String("interval", "100s", "sampling interval")
	until := fs.String("until", "4h", "trace horizon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := bf.params()
	if err != nil {
		return err
	}
	cur, err := units.ParseCurrent(*current)
	if err != nil {
		return err
	}
	iv, err := units.ParseDuration(*interval)
	if err != nil {
		return err
	}
	horizon, err := units.ParseDuration(*until)
	if err != nil {
		return err
	}
	points, err := p.Trace(kibam.SquareWave{On: cur.Amperes(), Frequency: *freq},
		iv.Seconds(), horizon.Seconds())
	if err != nil {
		return err
	}
	fmt.Println("t_s\ty1_As\ty2_As")
	for _, pt := range points {
		fmt.Printf("%.1f\t%.2f\t%.2f\n", pt.T, pt.Y1, pt.Y2)
	}
	return nil
}
