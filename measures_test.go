package batlife

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/core"
)

func TestExpectedLifetimeMatchesSimulation(t *testing.T) {
	b := PaperBattery()
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := NewSolver(SolverOptions{}).ExpectedLifetime(b, w, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(b, w, SimulateOptions{Runs: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	simMean, err := s.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-simMean) > 0.05*simMean {
		t.Errorf("expected lifetime %v vs simulated %v", mean, simMean)
	}
}

func TestExpectedLifetimeErrors(t *testing.T) {
	s := NewSolver(SolverOptions{})
	defer s.Close()
	if _, err := s.ExpectedLifetime(PaperBattery(), nil, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil workload: err = %v", err)
	}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpectedLifetime(PaperBattery(), w, AnalysisOptions{Delta: 7}); err == nil {
		t.Error("non-divisor delta accepted")
	}
	// After one draw the workload enters a closed zero-current pair, so
	// the battery may never empty: no finite mean, and the model is at
	// fault.
	closed, err := NewWorkload(
		[]StateSpec{{Name: "on", CurrentA: 0.96}, {Name: "a"}, {Name: "b"}},
		[]TransitionSpec{
			{From: "on", To: "a", RatePerSec: 0.5},
			{From: "a", To: "b", RatePerSec: 0.3},
			{From: "b", To: "a", RatePerSec: 0.7},
		},
		"on")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpectedLifetime(PaperBattery(), closed, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) || !errors.Is(err, core.ErrNoAbsorption) {
		t.Errorf("never-empty model: err = %v, want ErrBadArgument wrapping core.ErrNoAbsorption", err)
	}
}

func TestExpectedStrandedCharge(t *testing.T) {
	b := PaperBattery()
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	sc, err := s.StrandedCharge(b, w, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sc.MeanAs <= 0 || sc.MeanAs >= 2700 {
		t.Errorf("stranded mean = %v As", sc.MeanAs)
	}
	if sc.FractionOfBound <= 0 || sc.FractionOfBound >= 1 {
		t.Errorf("stranded fraction = %v", sc.FractionOfBound)
	}
	// c = 1: nothing can be stranded.
	ideal := Battery{CapacityAs: 7200, AvailableFraction: 1}
	sc1, err := s.StrandedCharge(ideal, w, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sc1.MeanAs != 0 {
		t.Errorf("ideal battery stranded = %v", sc1.MeanAs)
	}
}

// TestStrandedChargeNeverEmpty: a workload that may never empty the
// battery has no stranded charge to report, and the model is at fault,
// as for the mean.
func TestStrandedChargeNeverEmpty(t *testing.T) {
	closed, err := NewWorkload(
		[]StateSpec{{Name: "on", CurrentA: 0.96}, {Name: "a"}, {Name: "b"}},
		[]TransitionSpec{
			{From: "on", To: "a", RatePerSec: 0.5},
			{From: "a", To: "b", RatePerSec: 0.3},
			{From: "b", To: "a", RatePerSec: 0.7},
		},
		"on")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	if _, err := s.StrandedCharge(PaperBattery(), closed, AnalysisOptions{Delta: 100}); !errors.Is(err, ErrBadArgument) || !errors.Is(err, core.ErrNoAbsorption) {
		t.Errorf("never-empty model: err = %v, want ErrBadArgument wrapping core.ErrNoAbsorption", err)
	}
}

func TestPhasedLifetimeDistribution(t *testing.T) {
	b := Battery{CapacityAs: 7200, AvailableFraction: 1}
	heavy, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	light, err := OnOffWorkload(1, 1, 0.24)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{20000}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	opts := AnalysisOptions{Delta: 100}
	phased, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{
		{Workload: light, DurationSeconds: 8000},
		{Workload: heavy, DurationSeconds: math.Inf(1)},
	}, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	heavyOnly, err := s.LifetimeDistribution(b, heavy, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if phased.EmptyProb[0] >= heavyOnly.EmptyProb[0] {
		t.Errorf("light night did not extend life: phased %v vs heavy %v",
			phased.EmptyProb[0], heavyOnly.EmptyProb[0])
	}
}

func TestPhasedLifetimeDistributionErrors(t *testing.T) {
	b := PaperBattery()
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	opts := AnalysisOptions{Delta: 100}
	if _, err := s.PhasedLifetimeDistribution(b, nil, []float64{1}, opts); !errors.Is(err, ErrBadArgument) {
		t.Errorf("no phases: err = %v", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{{Workload: nil, DurationSeconds: 1}}, []float64{1}, opts); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil workload: err = %v", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{{Workload: w, DurationSeconds: -1}}, []float64{1}, opts); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative duration: err = %v", err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{
		{Workload: w, DurationSeconds: 10},
		{Workload: w, DurationSeconds: math.Inf(1)},
	}, []float64{-5, 0.5}, opts); !errors.Is(err, ErrBadArgument) {
		t.Errorf("negative time: err = %v", err)
	}
	// Mismatched phase workloads (different state counts).
	simple, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PhasedLifetimeDistribution(b, []WorkloadPhase{
		{Workload: w, DurationSeconds: 10},
		{Workload: simple, DurationSeconds: math.Inf(1)},
	}, []float64{5}, opts); err == nil {
		t.Error("mismatched phases accepted")
	}
}
