package batlife

import "testing"

// TestWorkCounts is the count gate: it pins the exact work one cold
// solve does on the paper's on/off model — the states and transitions
// of Q*, the uniformisation steps and products, the Fox–Glynn window,
// and the rows the windowed loop multiplies — plus a ceiling on the
// allocations of that solve. Each count is an integer the numerics fix
// exactly, so unlike a timing it does not move with the host. A change
// that legitimately moves a count updates its pin here and says why in
// CHANGES.md.
func TestWorkCounts(t *testing.T) {
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}
	for _, tc := range []struct {
		name       string
		battery    Battery
		want       SolveReport
		windowRows int64
		// allocs is the measured count for one cold solve; the
		// ceiling is 1.5× that, far below the ~42k a single
		// allocation per uniformisation step would add.
		allocs float64
	}{
		{
			name:    "fig7",
			battery: Battery{CapacityAs: 7200, AvailableFraction: 1},
			want: SolveReport{States: 146, Transitions: 360, Iterations: 42702, SpMVs: 42702,
				FoxGlynnLeft: 19316, FoxGlynnRight: 42702},
			windowRows: 5273918,
			allocs:     248,
		},
		{
			name:    "fig8",
			battery: Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5},
			want: SolveReport{States: 2576, Transitions: 7524, Iterations: 42768, SpMVs: 42768,
				FoxGlynnLeft: 19347, FoxGlynnRight: 42768},
			windowRows: 75023141,
			allocs:     246,
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
				opts := AnalysisOptions{Delta: 100, Report: &rep}
				if _, err := s.LifetimeDistribution(tc.battery, w, times, opts); err != nil {
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
}
