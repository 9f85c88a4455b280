package batlife

import (
	"fmt"
	"testing"
)

// BenchmarkObsOverhead measures what the telemetry layer costs on the
// solver's hot paths, by running the BenchmarkSolverCachedReuse query
// with telemetry disabled (nil registry) and enabled side by side:
//
//   - "warm": repeated identical query answered from the result memo —
//     the hottest path, where the enabled overhead is two pre-resolved
//     atomic counter increments. The acceptance bar is < 3% overhead
//     enabled and zero extra allocations disabled.
//   - "warm-model": cached expanded CTMC, fresh transient solve — where
//     the iteration counters and the ctmc.transient span amortise over
//     thousands of SpMVs.
func BenchmarkObsOverhead(b *testing.B) {
	battery := Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}
	opts := AnalysisOptions{Delta: 50}

	modes := []struct {
		name string
		reg  *Telemetry
	}{
		{"disabled", nil},
		{"enabled", nil}, // registry created per sub-benchmark below
	}
	for _, mode := range modes {
		enabled := mode.name == "enabled"
		newSolver := func() *Solver {
			var reg *Telemetry
			if enabled {
				reg = NewTelemetry()
			}
			return NewSolver(SolverOptions{Telemetry: reg})
		}

		b.Run(fmt.Sprintf("warm/%s", mode.name), func(b *testing.B) {
			s := newSolver()
			if _, err := s.LifetimeDistribution(battery, w, times, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.LifetimeDistribution(battery, w, times, opts); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("warm-model/%s", mode.name), func(b *testing.B) {
			s := newSolver()
			noMemo := opts
			noMemo.Progress = func(done, total int) {}
			if _, err := s.LifetimeDistribution(battery, w, times, noMemo); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.LifetimeDistribution(battery, w, times, noMemo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
