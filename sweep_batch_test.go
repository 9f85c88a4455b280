package batlife

import (
	"errors"
	"sync/atomic"
	"testing"

	"batlife/internal/core"
	"batlife/internal/engine"
	"batlife/internal/mrm"
)

// TestSweepBatchedGroupMatchesSolo forces the grouped sweep path —
// scenarios sharing (battery, workload, Δ) but with distinct time grids
// land in one fingerprint group and are solved through a single
// union-grid transient — and checks every curve bit for bit against
// fresh solo solves, the grouping contract.
func TestSweepBatchedGroupMatchesSolo(t *testing.T) {
	b, w := onOffC1(t)
	scenarios := []Scenario{
		{Name: "short", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{5000, 9000}},
		{Name: "long", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{10000, 15000, 20000}},
		{Name: "dense", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{6000, 7000, 8000, 9000}},
		{Name: "short-again", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{5000, 9000}},
	}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	defer s.Close()
	results, err := s.Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", r.Name, r.Err)
		}
		if r.Index != i || r.Name != scenarios[i].Name {
			t.Fatalf("result %d is {Index: %d, Name: %q}, want input order", i, r.Index, r.Name)
		}
		solo, err := NewSolver(SolverOptions{}).LifetimeDistribution(
			scenarios[i].Battery, scenarios[i].Workload, scenarios[i].Times,
			AnalysisOptions{Delta: scenarios[i].DeltaAs})
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, "batched sweep "+r.Name, r.Distribution.EmptyProb, solo.EmptyProb)
	}

	// One fingerprint group: the whole sweep must have expanded exactly
	// one model and run one transient over the union of its grids, whose
	// products are exactly those of a solo solve of the longest grid
	// (a repeat sweep comes entirely from the result memo).
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("model builds = %d, want 1 (one shared expanded CTMC)", st.Misses)
	}
	if v := reg.Counter("ctmc_solves_total").Value(); v != 1 {
		t.Errorf("ctmc_solves_total = %d, want 1 (one union-grid solve)", v)
	}
	var longest SolveReport
	if _, err := NewSolver(SolverOptions{}).LifetimeDistribution(b, w, scenarios[1].Times,
		AnalysisOptions{Delta: 100, Report: &longest}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("ctmc_spmv_total").Value(); v != int64(longest.SpMVs) {
		t.Errorf("ctmc_spmv_total = %d, want %d (a solo solve of the longest grid)", v, longest.SpMVs)
	}
	if v := reg.Counter("solver_solves_total").Value(); v != int64(len(scenarios)) {
		t.Errorf("solver_solves_total = %d, want %d", v, len(scenarios))
	}

	again, err := s.Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if r.Err != nil {
			t.Fatalf("memoised scenario %q: %v", r.Name, r.Err)
		}
		sameCurve(t, "memoised sweep "+r.Name, r.Distribution.EmptyProb, results[i].Distribution.EmptyProb)
	}
	if v := reg.Counter("solver_result_memo_hits_total").Value(); v != int64(len(scenarios)) {
		t.Errorf("memo hits after repeat sweep = %d, want %d", v, len(scenarios))
	}
}

// TestSweepBatchedGroupErrorFallsBackToSolo: when the shared model of a
// group cannot be built (Δ does not divide the wells), the batch is
// abandoned and every member reports its own solo error — batching must
// not coarsen per-scenario error attribution.
func TestSweepBatchedGroupErrorFallsBackToSolo(t *testing.T) {
	b, w := onOffC1(t)
	scenarios := []Scenario{
		{Name: "bad-a", Battery: b, Workload: w, DeltaAs: 7, Times: []float64{5000}},
		{Name: "bad-b", Battery: b, Workload: w, DeltaAs: 7, Times: []float64{9000}},
		{Name: "good", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{9000}},
	}
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:2] {
		if r.Err == nil || r.Distribution != nil {
			t.Errorf("scenario %q: err = %v, dist = %v; want per-scenario error", r.Name, r.Err, r.Distribution)
		}
	}
	if results[2].Err != nil {
		t.Errorf("scenario good: %v", results[2].Err)
	}
}

// TestSweepGroupIterationLimitPerScenario: MaxIterations lies between
// the Fox–Glynn right bounds of a short and a long grid of one group, so
// the union-grid solve fails as a whole. The solo fallback must still
// answer the short scenario (bit-identical to its solo curve) and refuse
// only the long one.
func TestSweepGroupIterationLimitPerScenario(t *testing.T) {
	b, w := onOffC1(t)
	short := []float64{2000, 4000}
	long := []float64{5000, 20000}
	var shortRep, longRep SolveReport
	solo := NewSolver(SolverOptions{})
	defer solo.Close()
	want, err := solo.LifetimeDistribution(b, w, short, AnalysisOptions{Delta: 100, Report: &shortRep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.LifetimeDistribution(b, w, long, AnalysisOptions{Delta: 100, Report: &longRep}); err != nil {
		t.Fatal(err)
	}
	if shortRep.FoxGlynnRight >= longRep.FoxGlynnRight {
		t.Fatalf("right bounds short %d, long %d: want short < long", shortRep.FoxGlynnRight, longRep.FoxGlynnRight)
	}
	limit := (shortRep.FoxGlynnRight + longRep.FoxGlynnRight) / 2

	s := NewSolver(SolverOptions{})
	defer s.Close()
	results, err := s.Sweep([]Scenario{
		{Name: "short", Battery: b, Workload: w, DeltaAs: 100, Times: short},
		{Name: "long", Battery: b, Workload: w, DeltaAs: 100, Times: long},
	}, SweepOptions{Workers: 1, MaxIterations: limit})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; r.Err != nil {
		t.Errorf("short scenario: %v", r.Err)
	} else {
		sameCurve(t, "short scenario", r.Distribution.EmptyProb, want.EmptyProb)
	}
	if r := results[1]; !errors.Is(r.Err, ErrIterationLimit) || r.Distribution != nil {
		t.Errorf("long scenario: err = %v, dist = %v; want ErrIterationLimit", r.Err, r.Distribution)
	}
}

// TestSolverCloseKeepsSolving: Close releases the worker pool but the
// solver must keep answering queries (serially) and Close must be
// idempotent.
func TestSolverCloseKeepsSolving(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{9000, 12000}
	s := NewSolver(SolverOptions{})
	before, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	// Bypass the result memo with a fresh grid so the post-Close solve
	// actually iterates.
	after, err := s.LifetimeDistribution(b, w, []float64{9000, 12000, 15000}, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatalf("solve after Close: %v", err)
	}
	sameCurve(t, "post-close prefix", after.EmptyProb[:2], before.EmptyProb)
}

// TestSweepHashesEachModelOnce counts the model hashes of a sweep: a
// group of two scenarios on one model (the batched path), a scenario
// alone on another (the solo path), and a scenario whose union-grid
// batch fails and falls back to solo solves. Each scenario's model is
// hashed once, when the sweep groups it; the solves reuse the group's
// key.
func TestSweepHashesEachModelOnce(t *testing.T) {
	var hashes atomic.Int64
	defer func(f func(mrm.KiBaMRM, float64, core.Options) engine.Key) { fingerprint = f }(fingerprint)
	fingerprint = func(m mrm.KiBaMRM, delta float64, build core.Options) engine.Key {
		hashes.Add(1)
		return engine.Fingerprint(m, delta, build)
	}
	b, w := onOffC1(t)
	scenarios := []Scenario{
		{Name: "batched-a", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{2000}},
		{Name: "batched-b", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{5000}},
		{Name: "solo", Battery: b, Workload: w, DeltaAs: 50, Times: []float64{5000}},
		{Name: "fallback-a", Battery: b, Workload: w, DeltaAs: 200, Times: []float64{1000}},
		{Name: "fallback-b", Battery: b, Workload: w, DeltaAs: 200, Times: []float64{20000}},
	}
	s := NewSolver(SolverOptions{})
	defer s.Close()
	results, err := s.Sweep(scenarios, SweepOptions{Workers: 2, MaxIterations: 15000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results[:4] {
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", r.Name, r.Err)
		}
	}
	if r := results[4]; !errors.Is(r.Err, ErrIterationLimit) {
		t.Fatalf("scenario %q: err = %v, want ErrIterationLimit", r.Name, r.Err)
	}
	if n := hashes.Load(); n != int64(len(scenarios)) {
		t.Errorf("the sweep hashed models %d times, want %d (once per scenario)", n, len(scenarios))
	}
}
