package batlife

// Ablation and extension benchmarks beyond the paper's own tables — see
// DESIGN.md ("Ablations called out by the design") and the extension
// experiments of cmd/paperfigs.

import (
	"context"
	"math"
	"testing"

	"batlife/internal/core"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/peukert"
	"batlife/internal/rao"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// BenchmarkBaselineComparison runs the Section 2–3 model ladder (ideal,
// Peukert, KiBaM, modified KiBaM) on the Table 1 loads and reports the
// square-wave lifetimes: the two analytic baselines cannot distinguish
// pulsed from constant loads of the same average.
func BenchmarkBaselineComparison(b *testing.B) {
	modK, err := rao.CalibrateK(7200, 0.625, 1, 0.96, 90*60)
	if err != nil {
		b.Fatal(err)
	}
	modified := rao.Params{Capacity: 7200, C: 0.625, K: modK}
	l1, err := benchPaperBattery.Lifetime(kibam.ConstantLoad(0.5))
	if err != nil {
		b.Fatal(err)
	}
	l2, err := benchPaperBattery.Lifetime(kibam.ConstantLoad(2.0))
	if err != nil {
		b.Fatal(err)
	}
	law, err := peukert.Fit(0.5, l1, 2.0, l2)
	if err != nil {
		b.Fatal(err)
	}
	var idealMin, peukertMin, kibamMin, modMin float64
	wave := kibam.SquareWave{On: 0.96, Frequency: 1}
	for i := 0; i < b.N; i++ {
		iv, err := peukert.Ideal{Capacity: 7200}.Lifetime(0.48)
		if err != nil {
			b.Fatal(err)
		}
		idealMin = iv / 60
		pv, err := law.LifetimeAverage(0.96, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		peukertMin = pv / 60
		kv, err := benchPaperBattery.Lifetime(wave)
		if err != nil {
			b.Fatal(err)
		}
		kibamMin = kv / 60
		mv, err := modified.Lifetime(wave)
		if err != nil {
			b.Fatal(err)
		}
		modMin = mv / 60
	}
	b.ReportMetric(idealMin, "ideal_min")
	b.ReportMetric(peukertMin, "peukert_min")
	b.ReportMetric(kibamMin, "kibam_min")
	b.ReportMetric(modMin, "modified_min")
}

// BenchmarkMeanLifetimeSolver measures the absorption-time solve for
// E[L] on already-built expanded chains of Fig. 8 (Δ = 50) and Fig. 10
// (Δ = 2 mAh) and reports the mean.
func BenchmarkMeanLifetimeSolver(b *testing.B) {
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		b.Fatal(err)
	}
	fig10Battery := kibam.Params{Capacity: units.MilliampHours(800).AmpereSeconds(), C: 0.625, K: 4.5e-5}
	for _, bc := range []struct {
		name  string
		model mrm.KiBaMRM
		delta float64
	}{
		{"fig8/delta=50", benchOnOffModel(b, benchPaperBattery), 50},
		{"fig10/delta=2mAh", benchWireless(b, simple, fig10Battery), units.MilliampHours(2).AmpereSeconds()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := core.Build(bc.model, bc.delta, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var mean float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mean, err = e.MeanLifetime(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mean, "mean_lifetime_s")
			b.ReportMetric(float64(e.NumStates()), "states")
		})
	}
}

// BenchmarkWastedCharge measures the stranded-charge distribution of
// the two-well on/off battery — the quantification of Figure 10's
// "not possible to make use of the total capacity" observation.
func BenchmarkWastedCharge(b *testing.B) {
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		b.Fatal(err)
	}
	model := mrm.KiBaMRM{
		Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: benchPaperBattery,
	}
	e, err := core.Build(model, 100, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wc, err := e.WastedChargeDistribution(40000)
		if err != nil {
			b.Fatal(err)
		}
		mean = wc.Mean()
	}
	b.ReportMetric(mean, "stranded_As")
}

// BenchmarkErlangKOnOff regenerates the Erlang-K extension experiment:
// the simulated distribution sharpens with K; the metric is the CDF
// spread between 14500 s and 15500 s (larger = sharper).
func BenchmarkErlangKOnOff(b *testing.B) {
	battery := kibam.Params{Capacity: 7200, C: 1, K: 0}
	for _, k := range []int{1, 4} {
		b.Run(
			map[int]string{1: "K=1", 4: "K=4"}[k],
			func(b *testing.B) {
				w, err := workload.OnOff(1, k, units.Amperes(0.96))
				if err != nil {
					b.Fatal(err)
				}
				model := mrm.KiBaMRM{
					Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: battery,
				}
				var spread float64
				for i := 0; i < b.N; i++ {
					e, err := core.Build(model, 50, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					res, err := e.LifetimeCDF([]float64{14500, 15500})
					if err != nil {
						b.Fatal(err)
					}
					spread = res.EmptyProb[1] - res.EmptyProb[0]
				}
				b.ReportMetric(spread, "cdf_spread")
			})
	}
}

// BenchmarkPhasedDayNight measures the piecewise time-inhomogeneous
// solver from cold: building a light night phase and a heavy day phase,
// then solving the schedule on their operators.
func BenchmarkPhasedDayNight(b *testing.B) {
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		b.Fatal(err)
	}
	heavy := mrm.KiBaMRM{
		Workload: w.Chain, Currents: w.Currents, Initial: w.Initial,
		Battery: kibam.Params{Capacity: 7200, C: 1, K: 0},
	}
	light := heavy
	light.Currents = []float64{0.24, 0}
	durations := []float64{8000, math.Inf(1)}
	var probe float64
	for i := 0; i < b.N; i++ {
		night, err := core.Build(light, 100, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		day, err := core.Build(heavy, 100, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.PhasedLifetimeCDFExpanded([]*core.Expanded{night, day}, durations, []float64{20000}, core.SolveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		probe = res.EmptyProb[0]
	}
	b.ReportMetric(probe, "Pr_20000s")
}

// BenchmarkChargingHarvest measures the charging extension: an on/off
// device with a harvesting state.
func BenchmarkChargingHarvest(b *testing.B) {
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		b.Fatal(err)
	}
	model := mrm.KiBaMRM{
		Workload:      w.Chain,
		Currents:      []float64{0.96, -0.3},
		Initial:       w.Initial,
		Battery:       kibam.Params{Capacity: 7200, C: 1, K: 0},
		AllowCharging: true,
	}
	var probe float64
	for i := 0; i < b.N; i++ {
		e, err := core.Build(model, 50, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.LifetimeCDF([]float64{20000})
		if err != nil {
			b.Fatal(err)
		}
		probe = res.EmptyProb[0]
	}
	b.ReportMetric(probe, "Pr_20000s")
}
