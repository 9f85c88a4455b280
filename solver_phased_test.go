package batlife

import (
	"context"
	"errors"
	"math"
	"testing"

	"batlife/internal/core"
)

// dayNight returns a two-phase schedule over distinct workloads that
// share the state count, as Solver.PhasedLifetimeDistribution requires.
func dayNight(t *testing.T) (Battery, []WorkloadPhase) {
	t.Helper()
	heavy, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	light, err := OnOffWorkload(1, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b := Battery{CapacityAs: 7200, AvailableFraction: 1}
	return b, []WorkloadPhase{
		{Workload: heavy, DurationSeconds: 10000},
		{Workload: light, DurationSeconds: 40000},
	}
}

func TestSolverGoldenPhasedLifetimeDistribution(t *testing.T) {
	// The deprecated free function, a fresh Solver, and the direct core
	// path must produce bit-identical curves.
	b, phases := dayNight(t)
	times := []float64{8000, 16000, 32000}
	const delta = 100

	xs := make([]*core.Expanded, len(phases))
	durations := make([]float64, len(phases))
	for i, ph := range phases {
		e, err := core.Build(ph.Workload.kibamrm(b), delta, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		xs[i], durations[i] = e, ph.DurationSeconds
	}
	direct, err := core.PhasedLifetimeCDFExpanded(xs, durations, times, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	viaFree, err := PhasedLifetimeDistribution(b, phases, delta, times)
	if err != nil {
		t.Fatal(err)
	}
	viaSolver, err := NewSolver(SolverOptions{}).PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}

	sameCurve(t, "free function vs core", viaFree.EmptyProb, direct.EmptyProb)
	sameCurve(t, "Solver vs core", viaSolver.EmptyProb, direct.EmptyProb)
	if viaSolver.States != direct.States || viaSolver.Transitions != direct.NNZ || viaSolver.Iterations != direct.Iterations {
		t.Errorf("metadata: solver {%d %d %d} vs core {%d %d %d}",
			viaSolver.States, viaSolver.Transitions, viaSolver.Iterations,
			direct.States, direct.NNZ, direct.Iterations)
	}
}

// TestSolverGoldenBits pins the day/night phased CDF and the Fig. 8
// stranded charge bit for bit, as the solver computed them when each
// phase re-uniformised its generator and every analysis had its own
// memo and report code.
func TestSolverGoldenBits(t *testing.T) {
	s := NewSolver(SolverOptions{})
	b, phases := dayNight(t)
	times := []float64{8000, 16000, 32000}
	d, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []uint64{0x3ebbd303068d69f5, 0x3f9a26dc3d26a8cf, 0x3fe6d0c4e429877c} {
		if got := math.Float64bits(d.EmptyProb[k]); got != want {
			t.Errorf("phased t=%v: %v (%#x), want %v (%#x)", times[k], d.EmptyProb[k], got, math.Float64frombits(want), want)
		}
	}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.StrandedCharge(PaperBattery(), w, 60000, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x4096f795ff55bdf2
	if got := math.Float64bits(sc.MeanAs); got != want {
		t.Errorf("stranded MeanAs = %v (%#x), want %v (%#x)", sc.MeanAs, got, math.Float64frombits(want), uint64(want))
	}
}

func TestSolverPhasedCachesModelsAndResults(t *testing.T) {
	b, phases := dayNight(t)
	times := []float64{8000, 16000}
	s := NewSolver(SolverOptions{})

	first, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("after first solve: stats = %+v, want 2 misses (one build per phase)", st)
	}

	var rep SolveReport
	second, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: 100, Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Errorf("after second solve: stats = %+v, want 2 misses + 2 hits", st)
	}
	if !rep.ResultMemoHit || !rep.ModelCacheHit {
		t.Errorf("report = %+v, want result-memo and model-cache hits", rep)
	}
	sameCurve(t, "memoised phased result", second.EmptyProb, first.EmptyProb)

	// A phase sharing a model with a plain query shares its cache entry.
	if _, err := s.LifetimeDistribution(b, phases[0].Workload, times, AnalysisOptions{Delta: 100}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 3 {
		t.Errorf("after shared-model query: stats = %+v, want no new build", st)
	}
}

func TestSolverPhasedErrors(t *testing.T) {
	b, phases := dayNight(t)
	s := NewSolver(SolverOptions{})
	times := []float64{8000}

	if _, err := s.PhasedLifetimeDistribution(b, nil, times, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("no phases: err = %v, want ErrBadArgument", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero delta: err = %v, want ErrBadArgument", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{{Workload: nil, DurationSeconds: 1}}, times, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil workload: err = %v, want ErrBadArgument", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{{Workload: phases[0].Workload, DurationSeconds: -3}}, times, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("bad duration: err = %v, want ErrBadArgument", err)
	}

	// Mismatched state counts are a phase-compatibility argument error.
	three, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	mixed := []WorkloadPhase{phases[0], {Workload: three, DurationSeconds: 1000}}
	if _, err := s.PhasedLifetimeDistribution(b, mixed, times, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("mismatched phases: err = %v, want ErrBadArgument", err)
	}

	// Cancellation threads through to the piecewise solve.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: 100, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled in chain", err)
	}

	// An iteration budget refuses the solve with the sentinel.
	if _, err := s.PhasedLifetimeDistribution(b, phases, times, AnalysisOptions{Delta: 100, MaxIterations: 1}); !errors.Is(err, ErrIterationLimit) {
		t.Errorf("budget: err = %v, want ErrIterationLimit", err)
	}
}
