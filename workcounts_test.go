package batlife

import (
	"runtime"
	"testing"
)

// TestWorkCounts is the count gate: it pins the exact work one cold
// solve does on the paper's on/off models (Fig. 7, Fig. 8) and on its
// simple wireless model (Fig. 10, whose Pᵀ has 6 bands against the on/off
// models' 4 and 5) — the states and transitions
// of Q*, the uniformisation steps and products, the Fox–Glynn window,
// and the rows the windowed loop multiplies — plus a ceiling on the
// allocations of that solve. A cold mean solve on Fig. 8 pins the chain
// size and its own allocation ceiling. Each count is an integer the numerics fix
// exactly, so unlike a timing it does not move with the host. A change
// that legitimately moves a count updates its pin here and says why in
// CHANGES.md.
func TestWorkCounts(t *testing.T) {
	onOff, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	wireless, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		battery    Battery
		workload   *Workload
		delta      float64
		times      []float64
		want       SolveReport
		windowRows int64
		// allocs is the measured count for one cold solve; the
		// ceiling is 1.5× that, far below the 1,476 to 42,768 a
		// single allocation per uniformisation step would add.
		allocs float64
	}{
		{
			name:     "fig7",
			battery:  Battery{CapacityAs: 7200, AvailableFraction: 1},
			workload: onOff, delta: 100, times: []float64{10000, 15000, 20000},
			want: SolveReport{States: 146, Transitions: 360, Iterations: 42702, SpMVs: 42702,
				FoxGlynnLeft: 19316, FoxGlynnRight: 42702},
			windowRows: 5273918,
			allocs:     247,
		},
		{
			name:     "fig8",
			battery:  Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5},
			workload: onOff, delta: 100, times: []float64{10000, 15000, 20000},
			want: SolveReport{States: 2576, Transitions: 7524, Iterations: 42768, SpMVs: 42768,
				FoxGlynnLeft: 19347, FoxGlynnRight: 42768},
			windowRows: 75023141,
			allocs:     245,
		},
		{
			name:     "fig10",
			battery:  Battery{CapacityAs: MilliampHours(800), AvailableFraction: 0.625, FlowRate: 4.5e-5},
			workload: wireless, delta: MilliampHours(10), times: []float64{36000, 72000, 108000},
			want: SolveReport{States: 4743, Transitions: 16215, Iterations: 1476, SpMVs: 1476,
				FoxGlynnLeft: 245, FoxGlynnRight: 1476},
			windowRows: 6341544,
			allocs:     225,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every run is a cold solve: a fresh Solver, so a fresh
			// model build and an empty result memo. The counts are
			// read from the last of AllocsPerRun's two runs.
			var (
				reg *Telemetry
				rep SolveReport
			)
			allocs := testing.AllocsPerRun(1, func() {
				reg = NewTelemetry()
				s := NewSolver(SolverOptions{Telemetry: reg})
				defer s.Close()
				opts := AnalysisOptions{Delta: tc.delta, Report: &rep}
				if _, err := s.LifetimeDistribution(tc.battery, tc.workload, tc.times, opts); err != nil {
					t.Fatal(err)
				}
			})
			got := SolveReport{States: rep.States, Transitions: rep.Transitions,
				Iterations: rep.Iterations, SpMVs: rep.SpMVs,
				FoxGlynnLeft: rep.FoxGlynnLeft, FoxGlynnRight: rep.FoxGlynnRight}
			if got != tc.want {
				t.Errorf("work counts %+v, want %+v", got, tc.want)
			}
			if n := reg.Counter("ctmc_window_rows_total").Value(); n != tc.windowRows {
				t.Errorf("ctmc_window_rows_total = %d, want %d", n, tc.windowRows)
			}
			if ceiling := 1.5 * tc.allocs; allocs > ceiling {
				t.Errorf("a cold solve allocates %v times, ceiling %v (1.5× the measured %v)",
					allocs, ceiling, tc.allocs)
			}
		})
	}
	// A cold mean solve on Fig. 8: one pass over Q*'s 1,288 live blocks.
	// Its ceiling is far below the 1,288 allocations that one per block
	// would add.
	t.Run("fig8-mean", func(t *testing.T) {
		const measured = 42
		var rep SolveReport
		allocs := testing.AllocsPerRun(1, func() {
			s := NewSolver(SolverOptions{})
			defer s.Close()
			opts := AnalysisOptions{Delta: 100, Report: &rep}
			if _, err := s.ExpectedLifetime(PaperBattery(), onOff, opts); err != nil {
				t.Fatal(err)
			}
		})
		if rep.States != 2576 || rep.Transitions != 7524 {
			t.Errorf("mean solve on %d states and %d transitions, want 2576 and 7524", rep.States, rep.Transitions)
		}
		if ceiling := 1.5 * measured; allocs > ceiling {
			t.Errorf("a cold mean solve allocates %v times, ceiling %v (1.5× the measured %v)",
				allocs, ceiling, measured)
		}
	})
}

// TestMemoryCounts is the memory gate: for one cold solve on a fresh
// Solver it bounds the bytes the solve allocates and the heap the
// Solver still holds after garbage collection, with the model and its
// operator in the cache. Each ceiling is 1.5× the measured value. The
// solver keeps α*, Pᵀ, the Fox–Glynn tables and its two caches; a CSR
// copy of Q* kept next to them (101 kB on Fig. 8 at Δ = 100 and 213 kB
// on Fig. 10 at Δ = 10 mAh: 12 bytes per nonzero and 4 per row) breaks
// the retained ceiling, as does building it on each cold solve the
// allocated one.
func TestMemoryCounts(t *testing.T) {
	onOff, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	wireless, err := SimpleWireless()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		battery  Battery
		workload *Workload
		delta    float64
		times    []float64
		// allocBytes and retainedBytes are the measured values.
		allocBytes, retainedBytes float64
	}{
		{
			name:     "fig8",
			battery:  Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5},
			workload: onOff, delta: 100, times: []float64{10000, 15000, 20000},
			allocBytes: 515_400, retainedBytes: 172_000,
		},
		{
			name:     "fig10",
			battery:  Battery{CapacityAs: MilliampHours(800), AvailableFraction: 0.625, FlowRate: 4.5e-5},
			workload: wireless, delta: MilliampHours(10), times: []float64{36000, 72000, 108000},
			allocBytes: 501_500, retainedBytes: 177_600,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solve := func(s *Solver) {
				if _, err := s.LifetimeDistribution(tc.battery, tc.workload, tc.times, AnalysisOptions{Delta: tc.delta}); err != nil {
					t.Fatal(err)
				}
			}
			// A first solve on a throwaway solver allocates what every
			// solve shares (the default SpMV pool and the like).
			warm := NewSolver(SolverOptions{})
			solve(warm)
			warm.Close()

			// Two collections before and after: the first moves
			// sync.Pool scratch to the victim cache and the second
			// frees it.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			s := NewSolver(SolverOptions{})
			defer s.Close()
			solve(s)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if n := s.Stats().Entries; n != 1 {
				t.Fatalf("%d cached models, want 1", n)
			}
			alloc := float64(after.TotalAlloc - before.TotalAlloc)
			retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			t.Logf("cold solve allocated %.0f B; the solver retains %.0f B", alloc, retained)
			if ceiling := 1.5 * tc.allocBytes; alloc > ceiling {
				t.Errorf("a cold solve allocates %.0f B, ceiling %.0f (1.5× the measured %.0f)", alloc, ceiling, tc.allocBytes)
			}
			if ceiling := 1.5 * tc.retainedBytes; retained > ceiling {
				t.Errorf("the solver retains %.0f B after the solve, ceiling %.0f (1.5× the measured %.0f)", retained, ceiling, tc.retainedBytes)
			}
		})
	}
}
