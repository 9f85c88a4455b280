package main

import (
	"context"
	"fmt"
	"io"

	"batlife/internal/core"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/peukert"
	"batlife/internal/rao"
	"batlife/internal/sim"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// newModifiedPaperBattery calibrates the modified KiBaM to the paper's
// 90-minute continuous-load target.
func newModifiedPaperBattery() (rao.Params, error) {
	k, err := rao.CalibrateK(7200, 0.625, 1, 0.96, 90*60)
	if err != nil {
		return rao.Params{}, err
	}
	return rao.Params{Capacity: 7200, C: 0.625, K: k}, nil
}

// fitPeukert fits Peukert's law to two (current, lifetime) points.
func fitPeukert(i1, l1, i2, l2 float64) (peukert.Law, error) {
	return peukert.Fit(i1, l1, i2, l2)
}

// runErlangK produces the curves the paper's Section 6.1 describes but
// does not show: the on/off model with Erlang-K phase times for K > 1.
// The simulated lifetime distribution sharpens with K while the
// Markovian approximation barely moves — the approximation cannot
// resolve the difference.
func runErlangK(w io.Writer, cfg config) error {
	battery := kibam.Params{Capacity: 7200, C: 1, K: 0}
	times := timesRange(13000, 17000, 100)
	var names []string
	var curves [][]float64
	for _, k := range []int{1, 2, 4, 8} {
		wl, err := workload.OnOff(1, k, units.Amperes(0.96))
		if err != nil {
			return err
		}
		model := mrm.KiBaMRM{
			Workload: wl.Chain, Currents: wl.Currents, Initial: wl.Initial, Battery: battery,
		}
		approx, err := approxCurve(model, 25, times)
		if err != nil {
			return err
		}
		names = append(names, fmt.Sprintf("K=%d,delta=25", k))
		curves = append(curves, approx)
		simCurve, err := sim.CurveAt(model, 1, sim.Options{Runs: cfg.runs}, times)
		if err != nil {
			return err
		}
		names = append(names, fmt.Sprintf("K=%d,simulation", k))
		curves = append(curves, simCurve)
	}
	fmt.Fprintln(w, "# extension: Erlang-K on/off curves (paper §6.1: \"we do not show curves here\")")
	fmt.Fprintln(w, "# expected shape: simulation sharpens with K; the approximation barely changes")
	return writeCurves(w, "t_s", times, 1, names, curves)
}

// runStranded quantifies the Figure 10 discussion — "it is in general
// not possible to make use of the total capacity" — as a distribution:
// how much bound charge is left when the battery dies, per workload and
// flow constant.
func runStranded(w io.Writer, cfg config) error {
	fmt.Fprintln(w, "# extension: stranded bound charge at depletion (quantifies the Fig. 10 discussion)")
	fmt.Fprintln(w, "workload\tk_per_s\tmean_lifetime_s\tstranded_mean_As\tstranded_frac_of_bound\tsim_stranded_mean_As")

	type scenario struct {
		label string
		model mrm.KiBaMRM
		delta float64
	}
	onoff := func(k float64) mrm.KiBaMRM {
		wl, err := workload.OnOff(1, 1, units.Amperes(0.96))
		if err != nil {
			panic("static on/off workload cannot fail: " + err.Error())
		}
		return mrm.KiBaMRM{
			Workload: wl.Chain, Currents: wl.Currents, Initial: wl.Initial,
			Battery: kibam.Params{Capacity: 7200, C: 0.625, K: k},
		}
	}
	simpleModel, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		return err
	}
	simpleRM := wirelessKiBaMRM(simpleModel, kibam.Params{
		Capacity: units.MilliampHours(800).AmpereSeconds(), C: 0.625, K: 4.5e-5,
	})
	scenarios := []scenario{
		{"onoff-1Hz", onoff(4.5e-5), 50},
		{"onoff-1Hz", onoff(9e-5), 50},
		{"onoff-1Hz", onoff(2.25e-5), 50},
		{"simple-wireless", simpleRM, units.MilliampHours(5).AmpereSeconds()},
	}
	for _, s := range scenarios {
		e, err := core.Build(s.model, s.delta, core.Options{})
		if err != nil {
			return err
		}
		mean, err := e.MeanLifetime(context.Background())
		if err != nil {
			return err
		}
		stranded, err := e.StrandedCharge(context.Background())
		if err != nil {
			return err
		}
		res, err := sim.Run(s.model, 1, sim.Options{Runs: cfg.runs / 2})
		if err != nil {
			return err
		}
		simMean, err := res.WastedCharge.Mean()
		if err != nil {
			return err
		}
		bound := (1 - s.model.Battery.C) * s.model.Battery.Capacity
		fmt.Fprintf(w, "%s\t%.3g\t%.0f\t%.0f\t%.3f\t%.0f\n",
			s.label, s.model.Battery.K, mean, stranded, stranded/bound, simMean)
	}
	return nil
}

// runVoltage evaluates cut-off–voltage lifetimes (Section 2: "the
// voltage drops during discharge") across load frequencies: the
// charge-based lifetime is an upper bound; a realistic cut-off trips
// earlier under continuous load than under pulsed load, because pulses
// let both the ohmic drop and the charge recover.
func runVoltage(w io.Writer, _ config) error {
	vp := kibam.TypicalLiIon()
	fmt.Fprintln(w, "# extension: cut-off-voltage lifetimes (Manwell–McGowan voltage layer)")
	fmt.Fprintf(w, "# cell: E0=%.2fV A=%.2f CV=%.2f D=%.2f R0=%.2fΩ\n", vp.E0, vp.A, vp.CV, vp.D, vp.R0)
	fmt.Fprintln(w, "load\tcutoff_V\tlifetime_min\tlimited_by")
	type load struct {
		label   string
		profile kibam.Profile
	}
	loads := []load{
		{"constant-0.96A", kibam.ConstantLoad(0.96)},
		{"square-1Hz", kibam.SquareWave{On: 0.96, Frequency: 1}},
		{"square-0.01Hz", kibam.SquareWave{On: 0.96, Frequency: 0.01}},
	}
	for _, cutoff := range []float64{3.0, 3.4, 3.6} {
		for _, ld := range loads {
			res, err := paperBattery.LifetimeToCutoff(vp, ld.profile, cutoff)
			if err != nil {
				return err
			}
			reason := "charge"
			if res.VoltageLimited {
				reason = "voltage"
			}
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%s\n", ld.label, cutoff, res.Lifetime/60, reason)
		}
	}
	return nil
}

// runBaselines compares the battery models of Sections 2–3 head to
// head: ideal linear battery, Peukert's law (fitted to two KiBaM
// points), plain KiBaM and modified KiBaM, on constant and square-wave
// loads. Peukert predicts the same lifetime for every profile with the
// same average — the failure the paper uses to motivate the KiBaM.
func runBaselines(w io.Writer, _ config) error {
	fmt.Fprintln(w, "# extension: baseline model comparison (Sections 2-3; lifetimes in minutes)")
	fmt.Fprintln(w, "load\tideal\tpeukert\tkibam\tmodified_kibam")

	battery := paperBattery
	modified, err := newModifiedPaperBattery()
	if err != nil {
		return err
	}
	ideal := func(avg float64) float64 { return battery.Capacity / avg / 60 }

	// Fit Peukert's law to the KiBaM's own constant-load behaviour at
	// two currents (the paper fits to measurements; we have none).
	l1, err := battery.Lifetime(kibam.ConstantLoad(0.5))
	if err != nil {
		return err
	}
	l2, err := battery.Lifetime(kibam.ConstantLoad(2.0))
	if err != nil {
		return err
	}
	law, err := fitPeukert(0.5, l1, 2.0, l2)
	if err != nil {
		return err
	}

	type load struct {
		label   string
		profile kibam.Profile
		avg     float64
	}
	loads := []load{
		{"constant-0.96A", kibam.ConstantLoad(0.96), 0.96},
		{"constant-0.48A", kibam.ConstantLoad(0.48), 0.48},
		{"square-1Hz-0.96A", kibam.SquareWave{On: 0.96, Frequency: 1}, 0.48},
		{"square-0.01Hz-0.96A", kibam.SquareWave{On: 0.96, Frequency: 0.01}, 0.48},
	}
	for _, ld := range loads {
		pk, err := law.Lifetime(ld.avg)
		if err != nil {
			return err
		}
		kb, err := battery.Lifetime(ld.profile)
		if err != nil {
			return err
		}
		mod, err := modified.Lifetime(ld.profile)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			ld.label, ideal(ld.avg), pk/60, kb/60, mod/60)
	}
	return nil
}
