package batlife

// This file is the benchmark harness required by DESIGN.md: one
// testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablations the design calls out. Each benchmark regenerates
// the experiment's data (at a bench-friendly resolution; cmd/paperfigs
// -full runs the paper-exact grids) and reports headline numbers as
// custom metrics so the shape of the result is visible in the bench
// output itself.

import (
	"fmt"
	"runtime"
	"testing"

	"batlife/internal/core"
	"batlife/internal/discretize"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/performability"
	"batlife/internal/rao"
	"batlife/internal/sim"
	"batlife/internal/units"
	"batlife/internal/workload"
)

var benchPaperBattery = kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}

func benchOnOffModel(b *testing.B, battery kibam.Params) mrm.KiBaMRM {
	b.Helper()
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		b.Fatal(err)
	}
	return mrm.KiBaMRM{Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: battery}
}

func benchWireless(b *testing.B, m *workload.Model, battery kibam.Params) mrm.KiBaMRM {
	b.Helper()
	return mrm.KiBaMRM{Workload: m.Chain, Currents: m.Currents, Initial: m.Initial, Battery: battery}
}

// BenchmarkFig2SquareWaveTrace regenerates Figure 2: the charge-well
// trace under a 0.001 Hz square wave.
func BenchmarkFig2SquareWaveTrace(b *testing.B) {
	var depletion float64
	for i := 0; i < b.N; i++ {
		points, err := benchPaperBattery.Trace(kibam.SquareWave{On: 0.96, Frequency: 0.001}, 100, 13000)
		if err != nil {
			b.Fatal(err)
		}
		depletion = points[len(points)-1].T
	}
	b.ReportMetric(depletion, "depletion_s")
}

// BenchmarkTable1Lifetimes regenerates Table 1: plain KiBaM, modified
// KiBaM (deterministic) and modified KiBaM (stochastic) lifetimes under
// continuous, 1 Hz and 0.2 Hz loads.
func BenchmarkTable1Lifetimes(b *testing.B) {
	modK, err := rao.CalibrateK(7200, 0.625, 1, 0.96, 90*60)
	if err != nil {
		b.Fatal(err)
	}
	modified := rao.Params{Capacity: 7200, C: 0.625, K: modK}
	stochastic := rao.StochasticParams{Params: modified}
	profiles := map[string]kibam.Profile{
		"continuous": kibam.ConstantLoad(0.96),
		"1Hz":        kibam.SquareWave{On: 0.96, Frequency: 1},
		"0.2Hz":      kibam.SquareWave{On: 0.96, Frequency: 0.2},
	}
	results := make(map[string]float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, p := range profiles {
			plain, err := benchPaperBattery.Lifetime(p)
			if err != nil {
				b.Fatal(err)
			}
			numeric, err := modified.Lifetime(p)
			if err != nil {
				b.Fatal(err)
			}
			stoch, _, err := stochastic.MeanLifetime(1, 5, p)
			if err != nil {
				b.Fatal(err)
			}
			results["kibam_"+name] = plain / 60
			results["modnum_"+name] = numeric / 60
			results["modstoch_"+name] = stoch / 60
		}
	}
	for name, v := range results {
		b.ReportMetric(v, name+"_min")
	}
}

// benchmarkLifetimeCDF times one Markovian-approximation solve and
// reports the CDF at a probe time plus the chain size.
func benchmarkLifetimeCDF(b *testing.B, model mrm.KiBaMRM, delta float64, times []float64, probeIdx int) {
	b.Helper()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		e, err := core.Build(model, delta, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err = e.LifetimeCDF(times)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.States), "states")
	b.ReportMetric(float64(res.Iterations), "iters")
	b.ReportMetric(res.EmptyProb[probeIdx], "Pr_probe")
}

// BenchmarkFig7OnOffDegenerate regenerates Figure 7 (c = 1, k = 0)
// across step sizes; the probe metric is Pr[empty at 15000 s] ≈ 0.5.
func BenchmarkFig7OnOffDegenerate(b *testing.B) {
	model := benchOnOffModel(b, kibam.Params{Capacity: 7200, C: 1, K: 0})
	times := []float64{10000, 15000, 20000}
	for _, delta := range []float64{100, 50, 25, 5} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			benchmarkLifetimeCDF(b, model, delta, times, 1)
		})
	}
	b.Run("simulation", func(b *testing.B) {
		var probe float64
		for i := 0; i < b.N; i++ {
			curve, err := sim.CurveAt(model, 1, sim.Options{Runs: 1000}, times)
			if err != nil {
				b.Fatal(err)
			}
			probe = curve[1]
		}
		b.ReportMetric(probe, "Pr_probe")
	})
}

// BenchmarkFig8OnOffKiBaM regenerates Figure 8 (c = 0.625, k = 4.5e-5).
// The paper's Δ = 10 and Δ = 5 grids are exercised by cmd/paperfigs
// -full; the bench keeps the grid at Δ ≥ 25 to stay in seconds.
func BenchmarkFig8OnOffKiBaM(b *testing.B) {
	model := benchOnOffModel(b, benchPaperBattery)
	times := []float64{10000, 15000, 20000}
	for _, delta := range []float64{100, 50, 25} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			benchmarkLifetimeCDF(b, model, delta, times, 1)
		})
	}
	b.Run("simulation", func(b *testing.B) {
		var probe float64
		for i := 0; i < b.N; i++ {
			curve, err := sim.CurveAt(model, 1, sim.Options{Runs: 1000}, times)
			if err != nil {
				b.Fatal(err)
			}
			probe = curve[1]
		}
		b.ReportMetric(probe, "Pr_probe")
	})
}

// BenchmarkFig9InitialCapacity regenerates Figure 9: the three
// initial-capacity scenarios, probing Pr[empty at 12000 s], which
// orders them small < two-well < large.
func BenchmarkFig9InitialCapacity(b *testing.B) {
	scenarios := []struct {
		name    string
		battery kibam.Params
		delta   float64
	}{
		{"C=4500_c=1", kibam.Params{Capacity: 4500, C: 1, K: 0}, 5},
		{"C=7200_c=0.625", benchPaperBattery, 25},
		{"C=7200_c=1", kibam.Params{Capacity: 7200, C: 1, K: 0}, 5},
	}
	times := []float64{12000, 16000}
	for _, s := range scenarios {
		b.Run(s.name, func(b *testing.B) {
			benchmarkLifetimeCDF(b, benchOnOffModel(b, s.battery), s.delta, times, 0)
		})
	}
}

// BenchmarkFig10SimpleModel regenerates Figure 10: the simple wireless
// model under the three battery settings, probing Pr[empty at 15 h].
func BenchmarkFig10SimpleModel(b *testing.B) {
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		b.Fatal(err)
	}
	mah := func(x float64) float64 { return units.MilliampHours(x).AmpereSeconds() }
	times := []float64{10 * 3600, 15 * 3600, 20 * 3600}

	b.Run("C=500_c=1_delta=2mAh", func(b *testing.B) {
		model := benchWireless(b, simple, kibam.Params{Capacity: mah(500), C: 1, K: 0})
		benchmarkLifetimeCDF(b, model, mah(2), times, 1)
	})
	b.Run("C=800_c=0.625_delta=2mAh", func(b *testing.B) {
		model := benchWireless(b, simple, kibam.Params{Capacity: mah(800), C: 0.625, K: 4.5e-5})
		benchmarkLifetimeCDF(b, model, mah(2), times, 1)
	})
	b.Run("C=800_c=1_exact", func(b *testing.B) {
		model := mrm.ConstantReward{Chain: simple.Chain, Rates: simple.Currents, Initial: simple.Initial}
		var probe float64
		for i := 0; i < b.N; i++ {
			probs, err := performability.EnergyDepletionCDF(model, mah(800), times)
			if err != nil {
				b.Fatal(err)
			}
			probe = probs[1]
		}
		b.ReportMetric(probe, "Pr_probe")
	})
	b.Run("C=800_c=0.625_simulation", func(b *testing.B) {
		model := benchWireless(b, simple, kibam.Params{Capacity: mah(800), C: 0.625, K: 4.5e-5})
		var probe float64
		for i := 0; i < b.N; i++ {
			curve, err := sim.CurveAt(model, 1, sim.Options{Runs: 1000}, times)
			if err != nil {
				b.Fatal(err)
			}
			probe = curve[1]
		}
		b.ReportMetric(probe, "Pr_probe")
	})
}

// BenchmarkFig11SimpleVsBurst regenerates Figure 11 at the paper's
// Δ = 5 mAh and reports both models' Pr[empty at 20 h] — the paper's
// quoted 0.95 vs 0.89 comparison.
func BenchmarkFig11SimpleVsBurst(b *testing.B) {
	battery := kibam.Params{
		Capacity: units.MilliampHours(800).AmpereSeconds(),
		C:        0.625,
		K:        4.5e-5,
	}
	delta := units.MilliampHours(5).AmpereSeconds()
	times := []float64{20 * 3600}
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		b.Fatal(err)
	}
	burst, err := workload.Burst(workload.BurstConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var pSimple, pBurst float64
	for i := 0; i < b.N; i++ {
		for _, m := range []struct {
			model *workload.Model
			out   *float64
		}{{simple, &pSimple}, {burst, &pBurst}} {
			e, err := core.Build(benchWireless(b, m.model, battery), delta, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.LifetimeCDF(times)
			if err != nil {
				b.Fatal(err)
			}
			*m.out = res.EmptyProb[0]
		}
	}
	b.ReportMetric(pSimple, "Pr_simple_20h")
	b.ReportMetric(pBurst, "Pr_burst_20h")
}

// BenchmarkComplexityScaling measures the Δ^-dependence of the
// Markovian approximation (Section 5.3): states grow with Δ^-1 (one
// well) or Δ^-2 (two wells), and iterations grow once consumption
// dominates the uniformisation rate.
func BenchmarkComplexityScaling(b *testing.B) {
	times := []float64{17000}
	for _, delta := range []float64{300, 100, 50, 25} {
		b.Run(fmt.Sprintf("two-well/delta=%g", delta), func(b *testing.B) {
			benchmarkLifetimeCDF(b, benchOnOffModel(b, benchPaperBattery), delta, times, 0)
		})
	}
	for _, delta := range []float64{50, 25, 10, 5} {
		b.Run(fmt.Sprintf("one-well/delta=%g", delta), func(b *testing.B) {
			model := benchOnOffModel(b, kibam.Params{Capacity: 7200, C: 1, K: 0})
			benchmarkLifetimeCDF(b, model, delta, times, 0)
		})
	}
}

// BenchmarkAblationDiscretize compares the paper's Markovian
// approximation against the reward-discretisation algorithm of [18] and
// the exact transform on the same question: Pr[empty at 15 h] for the
// simple model with c = 1. The paper's claim is that discretisation is
// unattractive; the metrics let the error/runtime trade-off be read off
// directly.
func BenchmarkAblationDiscretize(b *testing.B) {
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		b.Fatal(err)
	}
	capacity := units.MilliampHours(800).AmpereSeconds()
	times := []float64{15 * 3600}
	cr := mrm.ConstantReward{Chain: simple.Chain, Rates: simple.Currents, Initial: simple.Initial}
	exact, err := performability.EnergyDepletionCDF(cr, capacity, times)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("markovian/delta=2mAh", func(b *testing.B) {
		model := benchWireless(b, simple, kibam.Params{Capacity: capacity, C: 1, K: 0})
		var probe float64
		for i := 0; i < b.N; i++ {
			e, err := core.Build(model, units.MilliampHours(2).AmpereSeconds(), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res, err := e.LifetimeCDF(times)
			if err != nil {
				b.Fatal(err)
			}
			probe = res.EmptyProb[0]
		}
		b.ReportMetric(probe-exact[0], "error_vs_exact")
	})
	for _, step := range []float64{120, 30} {
		b.Run(fmt.Sprintf("discretize/step=%gs", step), func(b *testing.B) {
			var probe float64
			for i := 0; i < b.N; i++ {
				probs, err := discretize.EnergyDepletionCDF(cr, capacity, times, step)
				if err != nil {
					b.Fatal(err)
				}
				probe = probs[0]
			}
			b.ReportMetric(probe-exact[0], "error_vs_exact")
		})
	}
	b.Run("exact-transform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := performability.EnergyDepletionCDF(cr, capacity, times); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulation1000Runs measures the paper's simulation
// methodology in isolation: 1000 trajectories of the two-well on/off
// model.
func BenchmarkSimulation1000Runs(b *testing.B) {
	model := benchOnOffModel(b, benchPaperBattery)
	for i := 0; i < b.N; i++ {
		if _, err := sim.Lifetimes(model, int64(i+1), sim.Options{Runs: 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverCachedReuse measures the payoff of the Solver's cache
// layers on a repeated identical query. "cold" pays the full pipeline
// every iteration (a fresh Solver per query, the pre-Solver behaviour);
// "warm-model" reuses the cached expanded CTMC and uniformised operator
// but re-runs the transient solve (Progress bypasses the result memo);
// "warm" additionally hits the result memo. The acceptance bar for the
// engine is warm ≥ 2x faster than cold.
func BenchmarkSolverCachedReuse(b *testing.B) {
	battery := Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}
	opts := AnalysisOptions{Delta: 50}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewSolver(SolverOptions{}).LifetimeDistribution(battery, w, times, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-model", func(b *testing.B) {
		s := NewSolver(SolverOptions{})
		noMemo := opts
		noMemo.Progress = func(done, total int) {}
		if _, err := s.LifetimeDistribution(battery, w, times, noMemo); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.LifetimeDistribution(battery, w, times, noMemo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := NewSolver(SolverOptions{})
		if _, err := s.LifetimeDistribution(battery, w, times, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.LifetimeDistribution(battery, w, times, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSweepParallel measures Solver.Sweep on the Figure 8
// Δ-refinement grid, sequential vs all-cores — the scenario-level
// scaling the sweep API exists for. Each iteration uses a fresh Solver
// so every scenario is solved for real (no memo hits across b.N).
func BenchmarkSweepParallel(b *testing.B) {
	battery := Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}
	var scenarios []Scenario
	for _, delta := range []float64{100, 50, 25} {
		scenarios = append(scenarios, Scenario{
			Name: fmt.Sprintf("delta=%g", delta), Battery: battery, Workload: w,
			DeltaAs: delta, Times: times,
		})
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkPublicAPI measures the facade end-to-end: build workload,
// expand, solve — what a downstream user pays per call.
func BenchmarkPublicAPI(b *testing.B) {
	battery := Battery{CapacityAs: MilliampHours(800), AvailableFraction: 0.625, FlowRate: 4.5e-5}
	w, err := SimpleWireless()
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{15 * 3600, 20 * 3600}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(SolverOptions{})
		if _, err := s.LifetimeDistribution(battery, w, times, AnalysisOptions{Delta: MilliampHours(10)}); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
