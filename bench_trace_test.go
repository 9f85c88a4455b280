package batlife

import (
	"context"
	"fmt"
	"testing"

	"batlife/internal/obs"
)

// BenchmarkTraceOverhead measures what request-scoped tracing costs on
// the solver's hottest path — the memoised warm query — in three modes:
//
//   - "disabled": nil registry, untraced context. The solver's span
//     guard (solveSpan) short-circuits before building any attribute
//     slice; internal/obs's TestDisabledPathAllocs pins this guard at
//     zero allocations.
//   - "enabled": live registry, untraced context — every solve records
//     a root "solver.solve" span. The acceptance bar is < 3% overhead
//     against "disabled".
//   - "traced": live registry plus an inbound request span carried by
//     the context, the shape every daemon request has — the solve span
//     becomes a child and context propagation is exercised end to end.
func BenchmarkTraceOverhead(b *testing.B) {
	battery := Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5}
	w, err := OnOffWorkload(1, 1, 0.96)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10000, 15000, 20000}

	modes := []string{"disabled", "enabled", "traced"}
	for _, mode := range modes {
		b.Run(fmt.Sprintf("warm/%s", mode), func(b *testing.B) {
			var reg *Telemetry
			if mode != "disabled" {
				reg = NewTelemetry()
			}
			s := NewSolver(SolverOptions{Telemetry: reg})
			opts := AnalysisOptions{Delta: 50}
			if mode == "traced" {
				ctx, span := obs.StartSpan(context.Background(), reg, "http.request")
				defer span.End()
				opts.Context = ctx
			}
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
	}
}
