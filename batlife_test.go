package batlife

import (
	"errors"
	"math"
	"testing"
)

func TestPaperBatteryLifetimes(t *testing.T) {
	b := PaperBattery()
	life, err := b.Lifetime(0.96)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(life/60-91) > 0.5 {
		t.Errorf("continuous lifetime = %v min, want 91 (Table 1)", life/60)
	}
	square, err := b.LifetimeSquareWave(0.96, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(square/60-203) > 1 {
		t.Errorf("square-wave lifetime = %v min, want 203 (Table 1)", square/60)
	}
}

func TestBatteryValidate(t *testing.T) {
	bad := Battery{CapacityAs: -1, AvailableFraction: 0.5}
	if err := bad.Validate(); !errors.Is(err, ErrBadArgument) {
		t.Errorf("err = %v, want ErrBadArgument", err)
	}
	if err := PaperBattery().Validate(); err != nil {
		t.Errorf("paper battery rejected: %v", err)
	}
}

func TestMilliampHours(t *testing.T) {
	if got := MilliampHours(800); got != 2880 {
		t.Errorf("MilliampHours(800) = %v, want 2880", got)
	}
}

func TestCalibrateFlowRateRoundTrip(t *testing.T) {
	b := PaperBattery()
	life, err := b.Lifetime(0.96)
	if err != nil {
		t.Fatal(err)
	}
	k, err := b.CalibrateFlowRate(0.96, life)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-b.FlowRate) > 1e-9 {
		t.Errorf("recovered k = %v, want %v", k, b.FlowRate)
	}
}

func TestBatteryArgumentErrors(t *testing.T) {
	b := PaperBattery()
	if _, err := b.Lifetime(0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero current: err = %v", err)
	}
	if _, err := b.LifetimeSquareWave(1, 0, 0); !errors.Is(err, ErrBadArgument) {
		t.Errorf("zero frequency: err = %v", err)
	}
	if _, err := b.LifetimeSquareWave(1, 1, 1.5); !errors.Is(err, ErrBadArgument) {
		t.Errorf("bad duty: err = %v", err)
	}
}

func TestWorkloadConstructors(t *testing.T) {
	onoff, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(onoff.States()); got != 2 {
		t.Errorf("on/off has %d states", got)
	}
	simple, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(simple.States()); got != 3 {
		t.Errorf("simple has %d states", got)
	}
	mean, err := simple.MeanCurrent()
	if err != nil {
		t.Fatal(err)
	}
	// 0.5·8 + 0.25·200 = 54 mA.
	if math.Abs(mean-0.054) > 1e-9 {
		t.Errorf("simple mean current = %v A, want 0.054", mean)
	}
	burst, err := BurstWireless()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(burst.States()); got != 5 {
		t.Errorf("burst has %d states", got)
	}
}

func TestNewWorkloadCustom(t *testing.T) {
	w, err := NewWorkload(
		[]StateSpec{{Name: "active", CurrentA: 0.1}, {Name: "rest", CurrentA: 0}},
		[]TransitionSpec{
			{From: "active", To: "rest", RatePerSec: 1},
			{From: "rest", To: "active", RatePerSec: 1},
		},
		"active",
	)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := w.MeanCurrent()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-0.05) > 1e-12 {
		t.Errorf("mean current = %v, want 0.05", mean)
	}
}

func TestNewWorkloadErrors(t *testing.T) {
	if _, err := NewWorkload(nil, nil, "x"); !errors.Is(err, ErrBadArgument) {
		t.Errorf("no states: err = %v", err)
	}
	states := []StateSpec{{Name: "a", CurrentA: 1}}
	if _, err := NewWorkload(states, nil, "missing"); !errors.Is(err, ErrBadArgument) {
		t.Errorf("unknown initial: err = %v", err)
	}
	// Negative currents are allowed (charging states) but reject
	// simulation.
	neg := []StateSpec{{Name: "a", CurrentA: -1}, {Name: "b", CurrentA: 1}}
	tr2 := []TransitionSpec{{From: "a", To: "b", RatePerSec: 1}, {From: "b", To: "a", RatePerSec: 1}}
	wNeg, err := NewWorkload(neg, tr2, "a")
	if err != nil {
		t.Fatalf("charging workload rejected: %v", err)
	}
	if _, err := Simulate(Battery{CapacityAs: 100, AvailableFraction: 1}, wNeg, SimulateOptions{Runs: 10, Seed: 1}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("simulating charging workload: err = %v", err)
	}
	bad := []StateSpec{{Name: "a"}, {Name: "b"}}
	tr := []TransitionSpec{{From: "a", To: "b", RatePerSec: -1}}
	if _, err := NewWorkload(bad, tr, "a"); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestLifetimeDistributionEndToEnd(t *testing.T) {
	b := Battery{CapacityAs: 7200, AvailableFraction: 1}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}
	res, err := NewSolver(SolverOptions{}).LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 290 || res.Transitions == 0 || res.Iterations == 0 {
		t.Errorf("metadata: %+v", res)
	}
	if res.EmptyProb[0] > 0.05 || res.EmptyProb[2] < 0.95 {
		t.Errorf("curve = %v", res.EmptyProb)
	}
	if res.EmptyProb[1] < 0.3 || res.EmptyProb[1] > 0.7 {
		t.Errorf("median point = %v", res.EmptyProb[1])
	}
}

func TestThreeMethodsAgree(t *testing.T) {
	// Integration: Markovian approximation, simulation, and the exact
	// transform must agree on the simple wireless model with c = 1
	// (approximation within its grid bias, simulation within
	// Monte-Carlo noise).
	b := Battery{CapacityAs: MilliampHours(500), AvailableFraction: 1}
	w, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{6 * 3600, 9 * 3600, 12 * 3600, 15 * 3600}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	exact, err := s.ExactCDF(b, w, times, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: MilliampHours(2)})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := Simulate(b, w, SimulateOptions{Runs: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	simCurve := samples.CDF(times)
	for k := range times {
		if math.Abs(approx.EmptyProb[k]-exact.EmptyProb[k]) > 0.05 {
			t.Errorf("t=%vh: approximation %v vs exact %v", times[k]/3600, approx.EmptyProb[k], exact.EmptyProb[k])
		}
		if math.Abs(simCurve[k]-exact.EmptyProb[k]) > 0.06 { // ±4σ at n=1000 ≈ 0.06
			t.Errorf("t=%vh: simulation %v vs exact %v", times[k]/3600, simCurve[k], exact.EmptyProb[k])
		}
	}
}

func TestExactRequiresCOne(t *testing.T) {
	w, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	if _, err := s.ExactCDF(PaperBattery(), w, []float64{3600}, AnalysisOptions{}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("c<1: err = %v", err)
	}
	if _, err := s.ExactCDF(Battery{CapacityAs: 1, AvailableFraction: 1}, nil, []float64{1}, AnalysisOptions{}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil workload: err = %v", err)
	}
}

func TestSimulateLifetimesStats(t *testing.T) {
	b := Battery{CapacityAs: 7200, AvailableFraction: 1}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(b, w, SimulateOptions{Runs: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 200 {
		t.Errorf("N = %d", s.N())
	}
	mean, err := s.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-15000) > 300 {
		t.Errorf("mean = %v, want ≈ 15000", mean)
	}
	med, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-mean) > 500 {
		t.Errorf("median %v far from mean %v", med, mean)
	}
	if _, err := s.Quantile(2); err == nil {
		t.Error("Quantile(2) accepted")
	}
}

func TestLifetimeDistributionErrors(t *testing.T) {
	b := PaperBattery()
	s := NewSolver(SolverOptions{})
	defer s.Close()
	if _, err := s.LifetimeDistribution(b, nil, []float64{1}, AnalysisOptions{Delta: 25}); !errors.Is(err, ErrBadArgument) {
		t.Errorf("nil workload: err = %v", err)
	}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LifetimeDistribution(b, w, []float64{1}, AnalysisOptions{Delta: 7}); err == nil {
		t.Error("non-divisor delta accepted")
	}
}

func TestBurstOutlivesSimple(t *testing.T) {
	// The headline qualitative result of Figure 11, through the public
	// API at a coarse grid: the burst workload's battery outlives the
	// simple one.
	b := PaperBattery()
	b.CapacityAs = MilliampHours(800)
	simple, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	burst, err := BurstWireless()
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{20 * 3600}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	opts := AnalysisOptions{Delta: MilliampHours(10)}
	rs, err := s.LifetimeDistribution(b, simple, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.LifetimeDistribution(b, burst, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rb.EmptyProb[0] >= rs.EmptyProb[0] {
		t.Errorf("burst Pr[empty at 20h] %v not below simple %v", rb.EmptyProb[0], rs.EmptyProb[0])
	}
}
