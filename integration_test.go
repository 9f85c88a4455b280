package batlife

// Cross-method integration tests: the Markovian approximation, the
// Monte-Carlo simulator and (where applicable) the exact transform are
// three independent implementations of the same quantity. These tests
// throw randomly generated workloads and batteries at all of them and
// require agreement within grid bias plus Monte-Carlo noise — the
// strongest correctness evidence the repository has.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"batlife/internal/core"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/sim"
	"batlife/internal/workload"

	ictmc "batlife/internal/ctmc"
)

// modelToWorkload rewraps a KiBaMRM's workload parts for the facade.
func modelToWorkload(m mrm.KiBaMRM) *workload.Model {
	return &workload.Model{Chain: m.Workload, Currents: m.Currents, Initial: m.Initial}
}

// randomModel builds a random 2-4 state workload on a random battery,
// scaled so lifetimes land around `scale` seconds.
func randomModel(rng *rand.Rand) mrm.KiBaMRM {
	n := 2 + rng.Intn(3)
	var b ictmc.Builder
	name := func(i int) string { return fmt.Sprintf("m%d", i) }
	// A ring guarantees irreducibility; chords add variety.
	for i := 0; i < n; i++ {
		b.Transition(name(i), name((i+1)%n), 0.05+0.4*rng.Float64())
		if rng.Float64() < 0.5 {
			j := rng.Intn(n)
			if j != i {
				b.Transition(name(i), name(j), 0.05+0.2*rng.Float64())
			}
		}
	}
	chain, err := b.Build()
	if err != nil {
		panic("random ring workload cannot fail: " + err.Error())
	}
	currents := make([]float64, n)
	currents[0] = 0.5 + rng.Float64() // at least one real draw
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.7 {
			currents[i] = rng.Float64()
		}
	}
	c := 1.0
	k := 0.0
	if rng.Float64() < 0.5 {
		c = 0.4 + 0.5*rng.Float64()
		k = math.Pow(10, -5+2*rng.Float64()) // 1e-5 .. 1e-3
	}
	return mrm.KiBaMRM{
		Workload: chain,
		Currents: currents,
		Initial:  chain.PointDistribution(rng.Intn(n)),
		Battery:  kibam.Params{Capacity: 1800, C: c, K: k},
	}
}

func TestApproximationAgreesWithSimulationOnRandomModels(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-method sweep is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := randomModel(rng)

		// Grid: 60 levels of the full capacity; snapping c to the 1/60
		// grid makes the step divide both wells.
		cSnapped := math.Round(model.Battery.C*60) / 60
		if cSnapped <= 0 || cSnapped > 1 {
			return true
		}
		model.Battery.C = cSnapped
		delta := model.Battery.Capacity / 60

		e, err := core.Build(model, delta, core.Options{})
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		// Compare the MEAN lifetime rather than pointwise CDF values:
		// at 60 grid levels the phase-type approximation visibly smears
		// the CDF (the paper's Figure 7 effect), but its mean is only
		// biased by O(Δ), a few percent here.
		mean, err := e.MeanLifetime(context.Background())
		if err != nil {
			t.Logf("seed %d: mean: %v", seed, err)
			return false
		}
		ecdf, err := sim.Lifetimes(model, seed, sim.Options{Runs: 600})
		if err != nil {
			t.Logf("seed %d: sim: %v", seed, err)
			return false
		}
		simMean, err := ecdf.Mean()
		if err != nil {
			t.Logf("seed %d: sim mean: %v", seed, err)
			return false
		}
		// Grid bias scales with the level count of the available well
		// (c·C/Δ = 60·c levels): a few levels' worth of downward bias
		// plus Monte-Carlo noise.
		tol := 0.05 + 3*delta/(model.Battery.C*model.Battery.Capacity)
		if diff := math.Abs(mean - simMean); diff > tol*simMean {
			t.Logf("seed %d: approx mean %v vs sim mean %v (tol %v, battery %+v)",
				seed, mean, simMean, tol, model.Battery)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestExactAgreesWithApproximationOnRandomIdealModels(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-method sweep is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := randomModel(rng)
		model.Battery = kibam.Params{Capacity: 1800, C: 1, K: 0}

		w := &Workload{model: modelToWorkload(model)}
		b := Battery{CapacityAs: 1800, AvailableFraction: 1}
		pi, err := model.Workload.SteadyState()
		if err != nil {
			return false
		}
		meanI := 0.0
		for i, p := range pi {
			meanI += p * model.Currents[i]
		}
		scale := model.Battery.Capacity / meanI
		times := []float64{scale * 0.6, scale, scale * 1.4}
		s := NewSolver(SolverOptions{})
		defer s.Close()
		exact, err := s.ExactCDF(b, w, times, AnalysisOptions{})
		if err != nil {
			t.Logf("seed %d: exact: %v", seed, err)
			return false
		}
		approx, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 1800.0 / 300})
		if err != nil {
			t.Logf("seed %d: approx: %v", seed, err)
			return false
		}
		for k := range times {
			if diff := math.Abs(exact.EmptyProb[k] - approx.EmptyProb[k]); diff > 0.05 {
				t.Logf("seed %d t=%v: exact %v vs approx %v", seed, times[k], exact.EmptyProb[k], approx.EmptyProb[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
