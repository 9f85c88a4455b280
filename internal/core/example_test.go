package core_test

import (
	"context"
	"fmt"

	"batlife/internal/core"
	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
)

// Build the paper's Section 6.1 degenerate example — a 1 Hz on/off
// workload on an ideal 7200 As battery — and read off the state count
// the paper quotes for Δ = 5 and the lifetime CDF near the
// deterministic lifetime.
func Example() {
	var b ctmc.Builder
	b.Transition("on", "off", 2) // λ = 2·f·K = 2
	b.Transition("off", "on", 2)
	chain, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	model := mrm.KiBaMRM{
		Workload: chain,
		Currents: []float64{0.96, 0},
		Initial:  chain.PointDistribution(chain.Index("on")),
		Battery:  kibam.Params{Capacity: 7200, C: 1, K: 0},
	}
	expanded, err := core.Build(model, 5, core.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("states:", expanded.NumStates())

	res, err := expanded.LifetimeCDF([]float64{15000})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Pr[empty at 15000 s] = %.2f\n", res.EmptyProb[0])
	// Output:
	// states: 2882
	// Pr[empty at 15000 s] = 0.51
}

// The mean lifetime comes from a linear solve on the same expanded
// chain — no time grid needed.
func ExampleExpanded_MeanLifetime() {
	var b ctmc.Builder
	b.Transition("on", "off", 2)
	b.Transition("off", "on", 2)
	chain, err := b.Build()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	model := mrm.KiBaMRM{
		Workload: chain,
		Currents: []float64{0.96, 0},
		Initial:  chain.PointDistribution(chain.Index("on")),
		Battery:  kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5},
	}
	expanded, err := core.Build(model, 50, core.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	mean, err := expanded.MeanLifetime(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("mean lifetime ≈ %.0f minutes\n", mean/60)
	// Output:
	// mean lifetime ≈ 198 minutes
}
