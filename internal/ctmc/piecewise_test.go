package ctmc

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPiecewiseMatchesHomogeneous(t *testing.T) {
	// Splitting a homogeneous chain into arbitrary phases of the same
	// generator must not change anything.
	c := twoState(t, 2, 6)
	alpha := c.PointDistribution(0)
	times := []float64{0.3, 0.9, 1.4, 2.5}
	direct, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One operator serves every phase, as cached operators do.
	u := operator(t, c)
	phases := []Phase{
		{Operator: u, Duration: 0.5},
		{Operator: u, Duration: 1.0},
		{Operator: u, Duration: math.Inf(1)},
	}
	pw, err := PiecewiseTransient(phases, alpha, nil, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pw.Iterations <= 0 || pw.SpMVs != pw.Iterations {
		t.Errorf("Iterations = %d, SpMVs = %d; want equal and positive sums over the phases", pw.Iterations, pw.SpMVs)
	}
	for k := range times {
		for i := range alpha {
			if math.Abs(pw.Distributions[k][i]-direct.Distributions[k][i]) > 1e-10 {
				t.Errorf("t=%v state %d: piecewise %v vs direct %v",
					times[k], i, pw.Distributions[k][i], direct.Distributions[k][i])
			}
		}
	}
}

func TestPiecewiseTwoPhaseClosedForm(t *testing.T) {
	// Phase 1: rates (a1, b1) for d seconds; phase 2: rates (a2, b2).
	// Compose the two-state closed forms by hand.
	closed := func(a, b, p0, t float64) float64 {
		// π₁(t) starting with π₁(0) = p0.
		inf := a / (a + b)
		return inf + (p0-inf)*math.Exp(-(a+b)*t)
	}
	c1 := twoState(t, 1.0, 3.0)
	c2 := twoState(t, 5.0, 0.5)
	const d = 0.7
	phases := []Phase{
		{Operator: operator(t, c1), Duration: d},
		{Operator: operator(t, c2), Duration: math.Inf(1)},
	}
	alpha := []float64{1, 0}
	times := []float64{0.2, d, 1.0, 3.0}
	res, err := PiecewiseTransient(phases, alpha, nil, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	atBoundary := closed(1, 3, 0, d)
	want := []float64{
		closed(1, 3, 0, 0.2),
		atBoundary,
		closed(5, 0.5, atBoundary, 1.0-d),
		closed(5, 0.5, atBoundary, 3.0-d),
	}
	for k := range times {
		if math.Abs(res.Distributions[k][1]-want[k]) > 1e-9 {
			t.Errorf("t=%v: π₁ = %v, want %v", times[k], res.Distributions[k][1], want[k])
		}
	}
}

func TestPiecewiseFunctionalMatchesDistributions(t *testing.T) {
	c1 := twoState(t, 1, 2)
	c2 := twoState(t, 4, 1)
	phases := []Phase{
		{Operator: operator(t, c1), Duration: 1},
		{Operator: operator(t, c2), Duration: math.Inf(1)},
	}
	alpha := []float64{0.5, 0.5}
	w := []float64{2, -3}
	times := []float64{0.5, 1.5, 4}
	full, err := PiecewiseTransient(phases, alpha, nil, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := PiecewiseTransient(phases, alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		want := w[0]*full.Distributions[k][0] + w[1]*full.Distributions[k][1]
		if math.Abs(fn.Values[k]-want) > 1e-12 {
			t.Errorf("t=%v: %v, want %v", times[k], fn.Values[k], want)
		}
	}
	if fn.Distributions != nil {
		t.Error("functional result retains distributions")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	alpha := c.PointDistribution(0)
	good := Phase{Operator: operator(t, c), Duration: 1}

	if _, err := PiecewiseTransient(nil, alpha, nil, []float64{1}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("no phases: err = %v", err)
	}
	if _, err := PiecewiseTransient([]Phase{good}, alpha, nil, nil, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("no times: err = %v", err)
	}
	if _, err := PiecewiseTransient([]Phase{{Operator: operator(t, c), Duration: 0}}, alpha, nil, []float64{1}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero duration: err = %v", err)
	}
	inf := Phase{Operator: operator(t, c), Duration: math.Inf(1)}
	if _, err := PiecewiseTransient([]Phase{inf, good}, alpha, nil, []float64{1}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("infinite non-final phase: err = %v", err)
	}
	// Every time is checked up front, as Transient checks it, and not
	// as an error of the phase it would fall in.
	for _, times := range [][]float64{{-5, 0.5}, {0.5, math.NaN()}, {0.5, 1.5, math.Inf(1)}, {1.5, 0.5}} {
		_, err := PiecewiseTransient([]Phase{good, inf}, alpha, nil, times, TransientOptions{})
		if !errors.Is(err, ErrBadInput) || strings.Contains(err.Error(), "phase") {
			t.Errorf("times %v: err = %v, want ErrBadInput before any phase", times, err)
		}
	}
	// Time beyond the span of finite phases.
	if _, err := PiecewiseTransient([]Phase{good}, alpha, nil, []float64{5}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("time beyond span: err = %v", err)
	}
	// Mismatched generator size.
	var b3 Builder
	b3.Transition("x", "y", 1)
	b3.Transition("y", "z", 1)
	b3.Transition("z", "x", 1)
	c3, err := b3.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PiecewiseTransient([]Phase{{Operator: operator(t, c3), Duration: 1}}, alpha, nil, []float64{0.5}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("size mismatch: err = %v", err)
	}
	if _, err := PiecewiseTransient([]Phase{good}, alpha, []float64{1}, []float64{0.5}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("functional size mismatch: err = %v", err)
	}
	if _, err := PiecewiseTransient([]Phase{{Duration: 1}}, alpha, nil, []float64{0.5}, TransientOptions{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil operator: err = %v", err)
	}
}

func TestPiecewisePhaseWithNoQueries(t *testing.T) {
	// A middle phase containing no requested times must still advance
	// the distribution.
	c1 := twoState(t, 1, 3)
	c2 := twoState(t, 3, 1)
	phases := []Phase{
		{Operator: operator(t, c1), Duration: 1},
		{Operator: operator(t, c2), Duration: 1},
		{Operator: operator(t, c1), Duration: math.Inf(1)},
	}
	alpha := []float64{1, 0}
	// Only query inside phases 1 and 3.
	res, err := PiecewiseTransient(phases, alpha, nil, []float64{0.5, 2.5}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a run that also queries the boundaries.
	ref, err := PiecewiseTransient(phases, alpha, nil, []float64{0.5, 1, 2, 2.5}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Distributions[1][1]-ref.Distributions[3][1]) > 1e-10 {
		t.Errorf("skipped-phase run %v vs reference %v", res.Distributions[1][1], ref.Distributions[3][1])
	}
}

// operator uniformises a test chain for use as a phase.
func operator(t *testing.T, c *Chain) *Uniformized {
	t.Helper()
	u, err := NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	return u
}
