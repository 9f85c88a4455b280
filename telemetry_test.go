package batlife

import (
	"sort"
	"strconv"
	"sync"
	"testing"
)

// reportCase runs one of the solver's five analyses with a Report.
type reportCase struct {
	name string
	run  func(t *testing.T, s *Solver, rep *SolveReport)
	// uniformised analyses report Iterations == SpMVs > 0; expanded ones
	// obtain an expanded CTMC from the engine cache (the exact CDF needs
	// none).
	uniformised, expanded bool
}

// reportCases covers every analysis the facade memoises.
func reportCases(t *testing.T) []reportCase {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	nb, phases := dayNight(t)
	return []reportCase{
		{"cdf", func(t *testing.T, s *Solver, rep *SolveReport) {
			d, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: rep})
			if err != nil {
				t.Fatal(err)
			}
			if rep.States != d.States || rep.Transitions != d.Transitions || rep.Iterations != d.Iterations {
				t.Errorf("report stats %+v disagree with distribution %d/%d/%d",
					rep, d.States, d.Transitions, d.Iterations)
			}
		}, true, true},
		{"phased", func(t *testing.T, s *Solver, rep *SolveReport) {
			d, err := s.PhasedLifetimeDistribution(nb, phases, []float64{8000, 16000}, AnalysisOptions{Delta: 100, Report: rep})
			if err != nil {
				t.Fatal(err)
			}
			if rep.States != d.States || rep.Transitions != d.Transitions || rep.Iterations != d.Iterations {
				t.Errorf("report stats %+v disagree with distribution %d/%d/%d",
					rep, d.States, d.Transitions, d.Iterations)
			}
		}, true, true},
		{"mean", func(t *testing.T, s *Solver, rep *SolveReport) {
			if _, err := s.ExpectedLifetime(b, w, AnalysisOptions{Delta: 100, Report: rep}); err != nil {
				t.Fatal(err)
			}
		}, false, true},
		{"stranded", func(t *testing.T, s *Solver, rep *SolveReport) {
			if _, err := s.StrandedCharge(PaperBattery(), w, AnalysisOptions{Delta: 100, Report: rep}); err != nil {
				t.Fatal(err)
			}
		}, false, true},
		{"exact", func(t *testing.T, s *Solver, rep *SolveReport) {
			d, err := s.ExactCDF(b, w, times, AnalysisOptions{Report: rep})
			if err != nil {
				t.Fatal(err)
			}
			if rep.States != d.States || rep.Transitions != d.Transitions || rep.Iterations != d.Iterations {
				t.Errorf("report stats %+v disagree with distribution %d/%d/%d",
					rep, d.States, d.Transitions, d.Iterations)
			}
		}, false, false},
	}
}

// TestSolveReportFirstSolve pins the report of a cold solve of every
// analysis: a fresh model build, no memo hit, and the statistics of the
// actual solve — for the uniformised ones equal, positive Iterations and
// SpMVs, summed over the phases of a phased solve.
func TestSolveReportFirstSolve(t *testing.T) {
	for _, tc := range reportCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var rep SolveReport
			tc.run(t, NewSolver(SolverOptions{}), &rep)
			if rep.ModelCacheHit || rep.ResultMemoHit {
				t.Errorf("cold solve reported hits: %+v", rep)
			}
			if rep.States <= 0 || rep.Transitions <= 0 {
				t.Errorf("chain size %d/%d, want positive", rep.States, rep.Transitions)
			}
			if rep.SolveDuration <= 0 || tc.expanded != (rep.BuildDuration > 0) {
				t.Errorf("durations %v/%v on a cold solve", rep.BuildDuration, rep.SolveDuration)
			}
			switch {
			case !tc.uniformised:
				if rep.SpMVs != 0 || rep.UniformizationRate != 0 {
					t.Errorf("SpMVs = %d, rate = %v; want 0 without uniformisation", rep.SpMVs, rep.UniformizationRate)
				}
			case rep.Iterations <= 0 || rep.SpMVs != rep.Iterations:
				t.Errorf("Iterations = %d, SpMVs = %d; want equal and positive", rep.Iterations, rep.SpMVs)
			case rep.UniformizationRate <= 0:
				t.Errorf("UniformizationRate = %v", rep.UniformizationRate)
			case tc.name == "phased":
				if rep.FoxGlynnLeft != 0 || rep.FoxGlynnRight != 0 {
					t.Errorf("phased Fox–Glynn window [%d, %d], want unset", rep.FoxGlynnLeft, rep.FoxGlynnRight)
				}
			case rep.FoxGlynnRight <= 0 || rep.FoxGlynnLeft > rep.FoxGlynnRight:
				t.Errorf("Fox–Glynn window [%d, %d] implausible", rep.FoxGlynnLeft, rep.FoxGlynnRight)
			}
		})
	}
}

// TestSolveReportMemoReplay pins the memo-hit contract of every
// analysis: the answer comes from the memo, the statistics replay those
// of the original solve, and ResultMemoHit is set (ModelCacheHit too
// where the analysis expands a model).
func TestSolveReportMemoReplay(t *testing.T) {
	for _, tc := range reportCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSolver(SolverOptions{})
			var first, second SolveReport
			tc.run(t, s, &first)
			tc.run(t, s, &second)
			if !second.ResultMemoHit || second.ModelCacheHit != tc.expanded {
				t.Errorf("repeat solve: ResultMemoHit=%v ModelCacheHit=%v, want true/%v",
					second.ResultMemoHit, second.ModelCacheHit, tc.expanded)
			}
			if second.SolveDuration != 0 {
				t.Errorf("memo hit SolveDuration = %v, want 0", second.SolveDuration)
			}
			want := first
			want.ResultMemoHit, want.ModelCacheHit = true, tc.expanded
			want.BuildDuration, want.SolveDuration = second.BuildDuration, 0
			if second != want {
				t.Errorf("memo replay %+v, want the original's statistics %+v", second, first)
			}
		})
	}
}

// TestTelemetryExactCounts asserts exact deterministic counter values
// after a known sequence of solves: two identical queries are one build,
// one engine hit, one memo hit — and the iteration total matches the
// report. The window plans the one solve built are on its
// ctmc.transient span and in ctmc_window_plans_total alike: at least
// one, and fewer than its products, since most steps reuse the plan of
// the step before.
func TestTelemetryExactCounts(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	var rep SolveReport
	if _, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: &rep}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"solver_solves_total":                  2,
		"solver_result_memo_hits_total":        1,
		"engine_cache_misses_total":            1,
		"engine_cache_hits_total":              1,
		"ctmc_solves_total":                    1,
		"ctmc_uniformization_iterations_total": int64(rep.Iterations),
		"ctmc_spmv_total":                      int64(rep.SpMVs),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	var plans []string
	for _, span := range reg.Tracer().Spans() {
		if span.Name == "ctmc.transient" {
			plans = append(plans, span.Attrs["window_plans"])
		}
	}
	n := reg.Counter("ctmc_window_plans_total").Value()
	if len(plans) != 1 || plans[0] != strconv.FormatInt(n, 10) {
		t.Errorf("ctmc.transient window_plans %v, ctmc_window_plans_total %d: want one span holding the counter's value", plans, n)
	}
	if n < 1 || n >= int64(rep.SpMVs) {
		t.Errorf("ctmc_window_plans_total = %d for %d products, want at least 1 and fewer than the products", n, rep.SpMVs)
	}
	// The engine records each build's size once, next to its time.
	for _, name := range []string{"engine_build_seconds", "core_expanded_states", "core_expanded_nnz"} {
		if got := reg.Histogram(name).Snapshot().Count; got != 1 {
			t.Errorf("%s count = %d, want 1", name, got)
		}
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("Stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestSweepProgressOncePerScenario pins the Progress contract: exactly
// one callback per scenario — including memo-served repeats and failing
// scenarios — with each done value 1..n delivered exactly once.
func TestSweepProgressOncePerScenario(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	mk := func(name string, delta float64) Scenario {
		return Scenario{Name: name, Battery: b, Workload: w, DeltaAs: delta, Times: times}
	}
	scenarios := []Scenario{
		mk("a", 50),
		mk("a-again", 50), // same cell: served from cache/memo
		mk("bad", 7),      // 7 does not divide the well capacities: fails
		mk("b", 100),
		mk("a-thrice", 50),
		mk("bad-again", 7),
	}
	var (
		mu    sync.Mutex
		calls []int
	)
	s := NewSolver(SolverOptions{})
	results, err := s.Sweep(scenarios, SweepOptions{
		Workers: 3,
		Progress: func(done, total int) {
			if total != len(scenarios) {
				t.Errorf("Progress total = %d, want %d", total, len(scenarios))
			}
			mu.Lock()
			calls = append(calls, done)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(scenarios) {
		t.Fatalf("Progress fired %d times, want once per scenario (%d)", len(calls), len(scenarios))
	}
	sort.Ints(calls)
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("Progress done values %v, want a permutation of 1..%d", calls, len(scenarios))
		}
	}
	var failed int
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("%d failed scenarios, want 2", failed)
	}
}

// TestSweepTelemetrySpans runs an instrumented sweep and checks the span
// coverage the trace export promises: one sweep.scenario span per
// scenario, plus build and transient spans underneath.
func TestSweepTelemetrySpans(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	scenarios := []Scenario{
		{Name: "d50", Battery: b, Workload: w, DeltaAs: 50, Times: times},
		{Name: "d100", Battery: b, Workload: w, DeltaAs: 100, Times: times},
		{Name: "bad", Battery: b, Workload: w, DeltaAs: 7, Times: times},
	}
	if _, err := s.Sweep(scenarios, SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, span := range reg.Tracer().Spans() {
		byName[span.Name]++
	}
	if byName["sweep.scenario"] != len(scenarios) {
		t.Errorf("sweep.scenario spans = %d, want %d (got %v)", byName["sweep.scenario"], len(scenarios), byName)
	}
	// All three scenarios are cache misses, so three engine.build spans
	// (the bad Δ ends with an error attr). The engine's span is the only
	// build span: core.Build records nothing.
	if byName["engine.build"] != 3 || byName["core.build"] != 0 {
		t.Errorf("build spans engine=%d core=%d, want 3/0", byName["engine.build"], byName["core.build"])
	}
	if byName["ctmc.transient"] != 2 {
		t.Errorf("ctmc.transient spans = %d, want 2", byName["ctmc.transient"])
	}
	if v := reg.Counter("sweep_scenarios_total").Value(); v != int64(len(scenarios)) {
		t.Errorf("sweep_scenarios_total = %d, want %d", v, len(scenarios))
	}
	if h := reg.Histogram("sweep_queue_wait_seconds"); h.Snapshot().Count != int64(len(scenarios)) {
		t.Errorf("sweep_queue_wait_seconds count = %d, want %d", h.Snapshot().Count, len(scenarios))
	}
}
