package batlife

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"batlife/internal/core"
	"batlife/internal/mrm"
	"batlife/internal/performability"
)

func onOffC1(t testing.TB) (Battery, *Workload) {
	t.Helper()
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	return Battery{CapacityAs: 7200, AvailableFraction: 1}, w
}

// sameCurve fails unless the two CDF slices agree bit for bit — the
// redesign's contract is delegation, not approximation.
func sameCurve(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for k := range want {
		//numlint:ignore floatcmp golden equivalence demands bit-identical output
		if got[k] != want[k] {
			t.Errorf("%s: point %d = %v, want %v (must be bit-identical)", label, k, got[k], want[k])
		}
	}
}

func TestSolverGoldenLifetimeDistribution(t *testing.T) {
	// A fresh Solver and the pre-redesign direct core path must produce
	// bit-identical curves.
	b, w := onOffC1(t)
	times := []float64{10000, 15000, 20000}
	const delta = 50

	e, err := core.Build(w.kibamrm(b), delta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}

	viaSolver, err := NewSolver(SolverOptions{}).LifetimeDistribution(b, w, times, AnalysisOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}

	sameCurve(t, "Solver vs core", viaSolver.EmptyProb, direct.EmptyProb)
	if viaSolver.States != direct.States || viaSolver.Transitions != direct.NNZ || viaSolver.Iterations != direct.Iterations {
		t.Errorf("metadata: solver {%d %d %d} vs core {%d %d %d}",
			viaSolver.States, viaSolver.Transitions, viaSolver.Iterations,
			direct.States, direct.NNZ, direct.Iterations)
	}
}

func TestSolverGoldenExpectedLifetime(t *testing.T) {
	b, w := onOffC1(t)
	const delta = 100
	e, err := core.Build(w.kibamrm(b), delta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.MeanLifetime(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaSolver, err := NewSolver(SolverOptions{}).ExpectedLifetime(b, w, AnalysisOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	//numlint:ignore floatcmp golden equivalence demands bit-identical output
	if viaSolver != direct {
		t.Errorf("E[L]: solver %v, core %v — must be bit-identical", viaSolver, direct)
	}
}

func TestSolverGoldenStrandedCharge(t *testing.T) {
	b := PaperBattery()
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	const delta = 100.0
	e, err := core.Build(w.kibamrm(b), delta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.StrandedCharge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaSolver, err := NewSolver(SolverOptions{}).StrandedCharge(b, w, AnalysisOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	//numlint:ignore floatcmp golden equivalence demands bit-identical output
	if viaSolver.MeanAs != direct {
		t.Errorf("stranded mean: solver %v, core %v", viaSolver.MeanAs, direct)
	}
}

func TestSolverGoldenExactCDF(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000, 20000}
	model := mrm.ConstantReward{Chain: w.model.Chain, Rates: w.model.Currents, Initial: w.model.Initial}
	direct, err := performability.EnergyDepletionCDF(model, b.CapacityAs, times)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewSolver(SolverOptions{}).ExactCDF(b, w, times, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "Solver.ExactCDF vs performability", d.EmptyProb, direct)
	if d.States != 2 || d.Transitions == 0 || d.Iterations == 0 {
		t.Errorf("exact metadata not filled: %+v", d)
	}
	sameCurve(t, "ExactCDF.Times", d.Times, times)
}

func TestSolverCachesModelsAndResults(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	times := []float64{10000, 15000}
	opts := AnalysisOptions{Delta: 50}
	first, err := s.LifetimeDistribution(b, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Errorf("Stats().Entries = %d after one query", n)
	}
	second, err := s.LifetimeDistribution(b, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Error("memoised Distribution returned without cloning")
	}
	sameCurve(t, "memo hit", second.EmptyProb, first.EmptyProb)
	// Mean and stranded charge reuse the same expanded model.
	if _, err := s.ExpectedLifetime(b, w, opts); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Errorf("Stats().Entries = %d after mixed analyses on one model", n)
	}
}

// TestMemoKeyIgnoresUnreadOptions: the mean, stranded and exact analyses
// read neither Epsilon nor MaxIterations, so a repeat that differs only
// in those is a memo hit; the CDF reads Epsilon, so there it is a miss.
// The stranded charge runs on the two-well battery: with c = 1 nothing
// is stranded and it solves nothing.
func TestMemoKeyIgnoresUnreadOptions(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	for _, tc := range []struct {
		name string
		run  func(*Solver, AnalysisOptions) (any, error)
		hit  bool
	}{
		{"mean", func(s *Solver, o AnalysisOptions) (any, error) { return s.ExpectedLifetime(b, w, o) }, true},
		{"stranded", func(s *Solver, o AnalysisOptions) (any, error) { return s.StrandedCharge(PaperBattery(), w, o) }, true},
		{"exact", func(s *Solver, o AnalysisOptions) (any, error) { return s.ExactCDF(b, w, times, o) }, true},
		{"cdf", func(s *Solver, o AnalysisOptions) (any, error) { return s.LifetimeDistribution(b, w, times, o) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver(SolverOptions{})
			if _, err := tc.run(s, AnalysisOptions{Delta: 100}); err != nil {
				t.Fatal(err)
			}
			var rep SolveReport
			if _, err := tc.run(s, AnalysisOptions{Delta: 100, Epsilon: 1e-9, MaxIterations: 1 << 20, Report: &rep}); err != nil {
				t.Fatal(err)
			}
			if rep.ResultMemoHit != tc.hit {
				t.Errorf("repeat with another Epsilon and MaxIterations: ResultMemoHit = %v, want %v", rep.ResultMemoHit, tc.hit)
			}
		})
	}
}

func TestSolverCacheIsolationAcrossSolvers(t *testing.T) {
	// Two solvers with different batteries must not share entries: each
	// result must match a fresh single-use computation of its own model.
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	big := Battery{CapacityAs: 7200, AvailableFraction: 1}
	small := Battery{CapacityAs: 3600, AvailableFraction: 1}
	times := []float64{6000, 10000, 15000}
	opts := AnalysisOptions{Delta: 50}

	s1 := NewSolver(SolverOptions{})
	s2 := NewSolver(SolverOptions{})
	d1, err := s1.LifetimeDistribution(big, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s2.LifetimeDistribution(small, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Re-query each solver with the *other* solver's battery; the answer
	// must come out right even though both caches are warm.
	x2, err := s1.LifetimeDistribution(small, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := s2.LifetimeDistribution(big, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "s1 small vs s2 small", x2.EmptyProb, d2.EmptyProb)
	sameCurve(t, "s2 big vs s1 big", x1.EmptyProb, d1.EmptyProb)
	if d2.EmptyProb[0] <= d1.EmptyProb[0] {
		t.Errorf("smaller battery not emptier: %v vs %v", d2.EmptyProb[0], d1.EmptyProb[0])
	}
}

func TestSolverResultMutationDoesNotCorruptCache(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	times := []float64{10000, 15000, 20000}
	opts := AnalysisOptions{Delta: 50}
	first, err := s.LifetimeDistribution(b, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first.EmptyProb...)
	// Vandalise everything the caller can reach.
	for k := range first.EmptyProb {
		first.EmptyProb[k] = -1
		first.Times[k] = -1
	}
	first.States = -1
	second, err := s.LifetimeDistribution(b, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameCurve(t, "after caller mutation", second.EmptyProb, want)
	if second.States < 0 {
		t.Error("mutated States leaked into the cache")
	}
}

func TestSolverProgressBypassesMemo(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	times := []float64{15000}
	var calls atomic.Int64
	opts := AnalysisOptions{Delta: 100, Progress: func(done, total int) { calls.Add(1) }}
	if _, err := s.LifetimeDistribution(b, w, times, opts); err != nil {
		t.Fatal(err)
	}
	firstCalls := calls.Load()
	if firstCalls == 0 {
		t.Fatal("Progress never invoked")
	}
	if _, err := s.LifetimeDistribution(b, w, times, opts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2*firstCalls {
		t.Errorf("second call reported %d progress steps, want %d (memo must not swallow progress)",
			calls.Load()-firstCalls, firstCalls)
	}
	if s.results.Len() != 0 {
		t.Errorf("progress-bearing queries were memoised: %d entries", s.results.Len())
	}
}

func TestSolverMaxIterations(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	_, err := s.LifetimeDistribution(b, w, []float64{15000}, AnalysisOptions{Delta: 50, MaxIterations: 3})
	if !errors.Is(err, ErrIterationLimit) {
		t.Errorf("err = %v, want ErrIterationLimit", err)
	}
	// A refused solve must not poison the memo: a follow-up without the
	// budget must succeed.
	if _, err := s.LifetimeDistribution(b, w, []float64{15000}, AnalysisOptions{Delta: 50}); err != nil {
		t.Errorf("solve after refused budget: %v", err)
	}
}

func TestSolverContextCancellation(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.LifetimeDistribution(b, w, []float64{15000}, AnalysisOptions{Delta: 25, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	_, err = s.ExactCDF(b, w, []float64{15000}, AnalysisOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ExactCDF err = %v, want context.Canceled in chain", err)
	}
}

func TestSolverArgumentErrors(t *testing.T) {
	b, w := onOffC1(t)
	s := NewSolver(SolverOptions{})
	cases := []struct {
		name string
		call func() error
	}{
		{"nil workload", func() error {
			_, err := s.LifetimeDistribution(b, nil, []float64{1}, AnalysisOptions{Delta: 50})
			return err
		}},
		{"zero delta", func() error {
			_, err := s.LifetimeDistribution(b, w, []float64{1}, AnalysisOptions{})
			return err
		}},
		{"negative delta", func() error {
			_, err := s.ExpectedLifetime(b, w, AnalysisOptions{Delta: -5})
			return err
		}},
		{"non-divisor delta", func() error {
			_, err := s.LifetimeDistribution(b, w, []float64{1}, AnalysisOptions{Delta: 7})
			return err
		}},
		{"exact with c<1", func() error {
			_, err := s.ExactCDF(PaperBattery(), w, []float64{1}, AnalysisOptions{})
			return err
		}},
		{"empty sweep", func() error {
			_, err := s.Sweep(nil, SweepOptions{})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, ErrBadArgument) {
			t.Errorf("%s: err = %v, want ErrBadArgument", tc.name, err)
		}
	}
}

func TestStrandedChargeNoBoundWell(t *testing.T) {
	b, w := onOffC1(t) // AvailableFraction = 1
	sc, err := NewSolver(SolverOptions{}).StrandedCharge(b, w, AnalysisOptions{Delta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if sc.MeanAs != 0 || sc.FractionOfBound != 0 {
		t.Errorf("c=1 battery strands charge: %+v", sc)
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	// A parallel sweep must return results in input order, bit-identical
	// to solving each scenario alone on a fresh Solver.
	b, w := onOffC1(t)
	simple, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	smallB := Battery{CapacityAs: MilliampHours(500), AvailableFraction: 1}
	times := []float64{10000, 15000, 20000}
	hours := []float64{6 * 3600, 9 * 3600, 12 * 3600}
	scenarios := []Scenario{
		{Name: "onoff-d100", Battery: b, Workload: w, DeltaAs: 100, Times: times},
		{Name: "onoff-d50", Battery: b, Workload: w, DeltaAs: 50, Times: times},
		{Name: "onoff-d25", Battery: b, Workload: w, DeltaAs: 25, Times: times},
		{Name: "simple", Battery: smallB, Workload: simple, DeltaAs: MilliampHours(2), Times: hours},
		{Name: "onoff-d100-again", Battery: b, Workload: w, DeltaAs: 100, Times: times},
	}
	var progress atomic.Int64
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{
		Workers:  4,
		Progress: func(done, total int) { progress.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(scenarios) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scenarios))
	}
	if progress.Load() != int64(len(scenarios)) {
		t.Errorf("progress fired %d times, want %d", progress.Load(), len(scenarios))
	}
	for i, r := range results {
		if r.Index != i || r.Name != scenarios[i].Name {
			t.Fatalf("result %d is {Index: %d, Name: %q}, want input order", i, r.Index, r.Name)
		}
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", r.Name, r.Err)
		}
		sc := scenarios[i]
		seq, err := NewSolver(SolverOptions{}).LifetimeDistribution(sc.Battery, sc.Workload, sc.Times, AnalysisOptions{Delta: sc.DeltaAs})
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, "sweep "+sc.Name, r.Distribution.EmptyProb, seq.EmptyProb)
	}
}

func TestSweepPerScenarioErrors(t *testing.T) {
	b, w := onOffC1(t)
	scenarios := []Scenario{
		{Name: "ok", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{15000}},
		{Name: "bad-delta", Battery: b, Workload: w, DeltaAs: 7, Times: []float64{15000}},
		{Name: "nil-workload", Battery: b, Workload: nil, DeltaAs: 100, Times: []float64{15000}},
	}
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatalf("scenario failures must not abort the sweep: %v", err)
	}
	if results[0].Err != nil || results[0].Distribution == nil {
		t.Errorf("good scenario failed: %v", results[0].Err)
	}
	for _, i := range []int{1, 2} {
		if !errors.Is(results[i].Err, ErrBadArgument) {
			t.Errorf("%s: err = %v, want ErrBadArgument", results[i].Name, results[i].Err)
		}
		if results[i].Distribution != nil {
			t.Errorf("%s: non-nil distribution alongside error", results[i].Name)
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	b, w := onOffC1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scenarios := make([]Scenario, 4)
	for i := range scenarios {
		scenarios[i] = Scenario{Battery: b, Workload: w, DeltaAs: 50, Times: []float64{15000}}
	}
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("scenario %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestSweepConcurrentSolversShareNothing(t *testing.T) {
	// Two solvers sweeping different grids concurrently must stay
	// race-clean and correct (exercised under -race in CI).
	b, w := onOffC1(t)
	small := Battery{CapacityAs: 3600, AvailableFraction: 1}
	mk := func(bat Battery) []Scenario {
		return []Scenario{
			{Battery: bat, Workload: w, DeltaAs: 100, Times: []float64{10000}},
			{Battery: bat, Workload: w, DeltaAs: 50, Times: []float64{10000}},
		}
	}
	type out struct {
		results []SweepResult
		err     error
	}
	ch := make(chan out, 2)
	go func() {
		r, err := NewSolver(SolverOptions{}).Sweep(mk(b), SweepOptions{Workers: 2})
		ch <- out{r, err}
	}()
	go func() {
		r, err := NewSolver(SolverOptions{}).Sweep(mk(small), SweepOptions{Workers: 2})
		ch <- out{r, err}
	}()
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		for _, r := range o.results {
			if r.Err != nil {
				t.Errorf("%v", r.Err)
			}
		}
	}
}
