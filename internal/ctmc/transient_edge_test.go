package ctmc

import (
	"math"
	"testing"

	"batlife/internal/sparse"
)

func assertDistributionsFinite(t *testing.T, res *Result) {
	t.Helper()
	for k, d := range res.Distributions {
		sum := 0.0
		for i, p := range d {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < -1e-9 || p > 1+1e-9 {
				t.Fatalf("t=%v: state %d probability %v", res.Times[k], i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-8 {
			t.Fatalf("t=%v: distribution mass %v, want 1", res.Times[k], sum)
		}
	}
}

// TestTransientZeroUniformisationRate covers the q = 0 corner: a
// generator with no transitions at all (every state absorbing). The
// solver must not divide by the zero rate; the distribution is frozen
// at alpha for all times.
func TestTransientZeroUniformisationRate(t *testing.T) {
	const n = 3
	gen, err := sparse.NewBuilder(n, n, 0).Freeze()
	if err != nil {
		t.Fatalf("empty generator: %v", err)
	}
	alpha := []float64{0.2, 0.5, 0.3}
	times := []float64{0, 1, 1e6}

	res, err := transientDistributions(gen, alpha, times, TransientOptions{})
	if err != nil {
		t.Fatalf("transient distributions: %v", err)
	}
	if res.Rate != 0 {
		t.Fatalf("uniformisation rate %v, want 0", res.Rate)
	}
	assertDistributionsFinite(t, res)
	for k := range times {
		for i := range alpha {
			if res.Distributions[k][i] != alpha[i] {
				t.Fatalf("t=%v: state %d moved from %v to %v with no transitions",
					times[k], i, alpha[i], res.Distributions[k][i])
			}
		}
	}

	// The functional path through the same corner.
	w := []float64{1, 10, 100}
	fres, err := transientFunctional(gen, alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatalf("functional solve: %v", err)
	}
	want := 0.2*1 + 0.5*10 + 0.3*100
	for k, v := range fres.Values {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("t=%v: functional %v, want %v", times[k], v, want)
		}
	}
}

// TestTransientAbsorbingOnlyChain drives a chain whose only dynamics is
// absorption at very large horizons. All mass must end in the absorbing
// state with no NaN/Inf anywhere — this is the regime where steady-state
// detection folds a huge Poisson tail in one shot.
func TestTransientAbsorbingOnlyChain(t *testing.T) {
	var b Builder
	b.Transition("on", "dead", 2.0)
	chain, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	alpha := chain.PointDistribution(chain.Index("on"))
	times := []float64{0.1, 1, 100, 1e4}

	res, err := transientDistributions(chain.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	assertDistributionsFinite(t, res)

	dead := chain.Index("dead")
	for k, tp := range times {
		want := 1 - math.Exp(-2*tp)
		if got := res.Distributions[k][dead]; math.Abs(got-want) > 1e-8 {
			t.Fatalf("t=%v: absorbed mass %v, want %v", tp, got, want)
		}
	}
	// The last horizon corresponds to q·t ≈ 2e4; the full window would
	// be ~2e4 iterations, so detection must have cut it short.
	if res.Iterations > 5000 {
		t.Fatalf("steady-state detection did not engage: %d iterations", res.Iterations)
	}
}

// TestTransientRejectsBadTimes pins explicit errors for NaN/Inf inputs
// rather than silent propagation.
func TestTransientRejectsBadTimes(t *testing.T) {
	var b Builder
	b.Transition("a", "b", 1)
	chain, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	alpha := uniform(chain.NumStates())
	for _, times := range [][]float64{
		{math.NaN()},
		{math.Inf(1)},
		{-1},
		{},
	} {
		if _, err := transientDistributions(chain.Generator(), alpha, times, TransientOptions{}); err == nil {
			t.Fatalf("Transient(%v) accepted invalid time points", times)
		}
	}
}
