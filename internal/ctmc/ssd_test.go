package ctmc

import (
	"math"
	"testing"
)

// absorbingChain builds a birth chain 0 → 1 → ... → n (absorbing).
func absorbingChain(t *testing.T, n int, rate float64) *Chain {
	t.Helper()
	var b Builder
	for i := 0; i < n; i++ {
		b.Transition(stateName(i), stateName(i+1), rate)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSteadyStateDetectionMatchesFullRun(t *testing.T) {
	// Query far past absorption: detection must terminate early and
	// agree with the full run to within the epsilon budget.
	c := absorbingChain(t, 10, 2.0)
	alpha := c.PointDistribution(0)
	w := make([]float64, c.NumStates())
	w[c.NumStates()-1] = 1
	times := []float64{200} // absorption happens around t ≈ 5

	full, err := transientFunctional(c.Generator(), alpha, w, times,
		TransientOptions{DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	detected, err := transientFunctional(c.Generator(), alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.Values[0]-detected.Values[0]) > 1e-9 {
		t.Errorf("detected %v vs full %v", detected.Values[0], full.Values[0])
	}
	if detected.Iterations >= full.Iterations/2 {
		t.Errorf("detection saved too little: %d vs %d iterations",
			detected.Iterations, full.Iterations)
	}
	if math.Abs(detected.Values[0]-1) > 1e-9 {
		t.Errorf("absorption probability %v, want 1", detected.Values[0])
	}
}

func TestSteadyStateDetectionDistributions(t *testing.T) {
	c := absorbingChain(t, 6, 3.0)
	alpha := c.PointDistribution(0)
	times := []float64{0.5, 50}
	full, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	det, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		for i := range alpha {
			if math.Abs(full.Distributions[k][i]-det.Distributions[k][i]) > 1e-9 {
				t.Errorf("t=%v state %d: %v vs %v", times[k], i,
					det.Distributions[k][i], full.Distributions[k][i])
			}
		}
	}
}

// TestSteadyStateDetectionSinglePoint: a single-point distribution
// solve far past absorption stops on the steady-state test, before the
// end of its Poisson window, and agrees with the full run.
func TestSteadyStateDetectionSinglePoint(t *testing.T) {
	c := absorbingCycle(t)
	alpha := c.PointDistribution(0)
	times := []float64{400}
	full, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	det, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Iterations >= det.FoxGlynnRight {
		t.Errorf("%d iterations of window %d; want steady-state detection to fire", det.Iterations, det.FoxGlynnRight)
	}
	for i := range alpha {
		if math.Abs(full.Distributions[0][i]-det.Distributions[0][i]) > 1e-9 {
			t.Errorf("state %d: %v vs %v", i, det.Distributions[0][i], full.Distributions[0][i])
		}
	}
}

func TestSteadyStateDetectionErgodicChain(t *testing.T) {
	// An ergodic chain also converges (to its stationary distribution);
	// detection must return that distribution for late time points.
	c := twoState(t, 2, 6)
	alpha := c.PointDistribution(0)
	res, err := transientDistributions(c.Generator(), alpha, []float64{500}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(res.Distributions[0][i]-pi[i]) > 1e-9 {
			t.Errorf("state %d: %v, steady %v", i, res.Distributions[0][i], pi[i])
		}
	}
	if res.Iterations > 2000 {
		t.Errorf("no early termination: %d iterations", res.Iterations)
	}
}

func TestSteadyStateDetectionDoesNotTriggerEarly(t *testing.T) {
	// Mid-transient queries must be unaffected by the detection logic.
	c := twoState(t, 1.5, 0.5)
	alpha := c.PointDistribution(0)
	times := []float64{0.1, 0.5, 1.2}
	full, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	det, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		for i := range alpha {
			if math.Abs(full.Distributions[k][i]-det.Distributions[k][i]) > 1e-9 {
				t.Errorf("t=%v state %d: %v vs %v", times[k], i,
					det.Distributions[k][i], full.Distributions[k][i])
			}
		}
	}
}
