package ctmc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"batlife/internal/sparse"
)

// erlangCDF is the closed-form CDF of an Erlang(k, rate) distribution.
func erlangCDF(k int, rate, t float64) float64 {
	sum := 0.0
	term := 1.0
	for i := 0; i < k; i++ {
		if i > 0 {
			term *= rate * t / float64(i)
		}
		sum += term
	}
	return 1 - math.Exp(-rate*t)*sum
}

func TestTransientTwoStateClosedForm(t *testing.T) {
	// Starting in state 0 of the chain 0 -a-> 1, 1 -b-> 0:
	// π₁(t) = a/(a+b)·(1 - e^{-(a+b)t}).
	a, b := 2.0, 6.0
	c := twoState(t, a, b)
	times := []float64{0, 0.01, 0.1, 0.5, 1, 5}
	res, err := transientDistributions(c.Generator(), c.PointDistribution(0), times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range times {
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tm))
		got := res.Distributions[k][1]
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("t=%v: π₁ = %v, want %v", tm, got, want)
		}
		if s := res.Distributions[k][0] + res.Distributions[k][1]; math.Abs(s-1) > 1e-10 {
			t.Errorf("t=%v: distribution sums to %v", tm, s)
		}
	}
}

func TestTransientErlangAbsorption(t *testing.T) {
	// A pure birth chain 0 -> 1 -> ... -> K (absorbing): the probability
	// of having been absorbed by time t is the Erlang(K, rate) CDF.
	const k = 5
	rate := 3.0
	var b Builder
	for i := 0; i < k; i++ {
		b.Transition(stateName(i), stateName(i+1), rate)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, c.NumStates())
	w[c.Index(stateName(k))] = 1
	times := []float64{0.1, 0.5, 1, 2, 4}
	res, err := transientFunctional(c.Generator(), c.PointDistribution(0), w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range times {
		want := erlangCDF(k, rate, tm)
		if math.Abs(res.Values[i]-want) > 1e-10 {
			t.Errorf("t=%v: P[absorbed] = %v, want Erlang CDF %v", tm, res.Values[i], want)
		}
	}
}

func TestTransientFunctionalMatchesDistributions(t *testing.T) {
	var b Builder
	b.Transition("a", "b", 1.5)
	b.Transition("b", "c", 0.5)
	b.Transition("c", "a", 1.0)
	b.Transition("b", "a", 2.0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{0.2, -1.5, 3.0}
	times := []float64{0.3, 1.7, 6.0}
	alpha := uniform(c.NumStates())
	full, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := transientFunctional(c.Generator(), alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		want := 0.0
		for i, wi := range w {
			want += wi * full.Distributions[k][i]
		}
		if math.Abs(fn.Values[k]-want) > 1e-11 {
			t.Errorf("t=%v: functional %v, want %v", times[k], fn.Values[k], want)
		}
	}
}

func TestTransientZeroGenerator(t *testing.T) {
	// A chain with no transitions never moves.
	gen, err := sparse.NewBuilder(3, 3, 0).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	alpha := []float64{0.2, 0.3, 0.5}
	res, err := transientDistributions(gen, alpha, []float64{0, 10, 1e6}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.Times {
		for i := range alpha {
			if res.Distributions[k][i] != alpha[i] {
				t.Errorf("t=%v state %d: %v, want %v", res.Times[k], i, res.Distributions[k][i], alpha[i])
			}
		}
	}
	if res.Iterations != 0 || res.Rate != 0 {
		t.Errorf("iterations=%d rate=%v for frozen chain", res.Iterations, res.Rate)
	}
}

func TestTransientInputValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	alpha := c.PointDistribution(0)
	cases := []struct {
		name  string
		alpha []float64
		w     []float64
		times []float64
	}{
		{"wrong alpha len", []float64{1}, nil, []float64{1}},
		{"alpha not normalised", []float64{0.5, 0.4}, nil, []float64{1}},
		{"negative alpha", []float64{1.5, -0.5}, nil, []float64{1}},
		{"no times", alpha, nil, nil},
		{"negative time", alpha, nil, []float64{-1}},
		{"NaN time", alpha, nil, []float64{math.NaN()}},
		{"unsorted times", alpha, nil, []float64{2, 1}},
		{"wrong w len", alpha, []float64{1}, []float64{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.w != nil {
				_, err = transientFunctional(c.Generator(), tc.alpha, tc.w, tc.times, TransientOptions{})
			} else {
				_, err = transientDistributions(c.Generator(), tc.alpha, tc.times, TransientOptions{})
			}
			if !errors.Is(err, ErrBadInput) {
				t.Errorf("err = %v, want ErrBadInput", err)
			}
		})
	}
}

func TestTransientDistributionProperty(t *testing.T) {
	// For random chains and times, π(t) is a distribution: non-negative
	// and summing to one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		var b Builder
		// A random ring plus chords guarantees every state has an exit.
		for i := 0; i < n; i++ {
			b.Transition(stateName(i), stateName((i+1)%n), 0.1+3*rng.Float64())
			if rng.Float64() < 0.5 {
				j := rng.Intn(n)
				if j != i {
					b.Transition(stateName(i), stateName(j), 0.1+rng.Float64())
				}
			}
		}
		c, err := b.Build()
		if err != nil {
			return false
		}
		times := []float64{rng.Float64(), 1 + 4*rng.Float64()}
		res, err := transientDistributions(c.Generator(), c.PointDistribution(rng.Intn(n)), times, TransientOptions{})
		if err != nil {
			return false
		}
		for k := range times {
			sum := 0.0
			for _, p := range res.Distributions[k] {
				if p < -1e-12 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	var b Builder
	b.Transition("idle", "send", 2)
	b.Transition("idle", "sleep", 1)
	b.Transition("sleep", "send", 2)
	b.Transition("send", "idle", 6)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	res, err := transientDistributions(c.Generator(), c.PointDistribution(0), []float64{50}, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(res.Distributions[0][i]-pi[i]) > 1e-8 {
			t.Errorf("state %d: transient %v, steady %v", i, res.Distributions[0][i], pi[i])
		}
	}
}

func TestTransientSharedSequenceConsistency(t *testing.T) {
	// Solving several times at once must agree with solving each alone.
	c := twoState(t, 0.8, 1.7)
	alpha := c.PointDistribution(0)
	w := []float64{0, 1}
	times := []float64{0.5, 2, 8}
	joint, err := transientFunctional(c.Generator(), alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range times {
		single, err := transientFunctional(c.Generator(), alpha, w, []float64{tm}, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(joint.Values[k]-single.Values[0]) > 1e-11 {
			t.Errorf("t=%v: joint %v, single %v", tm, joint.Values[k], single.Values[0])
		}
	}
}

func TestTransientOnIterationCallback(t *testing.T) {
	c := twoState(t, 1, 1)
	var calls, lastDone, lastTotal int
	opts := TransientOptions{OnIteration: func(done, total int) {
		calls++
		lastDone, lastTotal = done, total
	}}
	res, err := transientDistributions(c.Generator(), c.PointDistribution(0), []float64{3}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("callback called %d times, iterations %d", calls, res.Iterations)
	}
	if lastDone != res.Iterations || lastTotal < lastDone {
		t.Errorf("last callback (%d,%d), iterations %d", lastDone, lastTotal, res.Iterations)
	}
}

// absorbingCycle builds a small cyclic chain with an absorbing tail:
// distributions keep moving for a while, and steady-state detection
// eventually fires.
func absorbingCycle(t *testing.T) *Chain {
	t.Helper()
	var b Builder
	b.Transition("a", "b", 2.0)
	b.Transition("b", "c", 1.5)
	b.Transition("c", "a", 0.75)
	b.Transition("c", "d", 0.25)
	b.Transition("b", "d", 0.1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTransientFusedMatchesUnfused: a single-time distribution solve
// folds each iterate inside the product (MulVecPlan with an
// accumulator); a solve over the same point twice takes the unfused
// product-then-fold path. The fused kernel must not change a single bit
// of the answer.
func TestTransientFusedMatchesUnfused(t *testing.T) {
	c := absorbingCycle(t)
	u, err := NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	alpha := c.PointDistribution(0)
	for _, tm := range []float64{2.5, 400} { // 400: steady-state detection fires
		fused, err := u.Transient(alpha, nil, []float64{tm}, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := u.Transient(alpha, nil, []float64{tm, tm}, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fused.Iterations != unfused.Iterations || fused.SpMVs != unfused.SpMVs {
			t.Errorf("t=%v: iterations/spmvs %d/%d, unfused %d/%d",
				tm, fused.Iterations, fused.SpMVs, unfused.Iterations, unfused.SpMVs)
		}
		if tm == 400 && fused.Iterations >= fused.FoxGlynnRight {
			t.Errorf("t=400: %d iterations of window %d; want steady-state detection to fire", fused.Iterations, fused.FoxGlynnRight)
		}
		for i, p := range fused.Distributions[0] {
			if math.Float64bits(p) != math.Float64bits(unfused.Distributions[0][i]) {
				t.Errorf("t=%v state %d: fused %v, unfused %v (bit-identical)", tm, i, p, unfused.Distributions[0][i])
			}
		}
	}
}

// TestTransientCancellation: a cancelled context aborts the solve
// between steps with a wrapped context error.
func TestTransientCancellation(t *testing.T) {
	c := absorbingCycle(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := transientDistributions(c.Generator(), c.PointDistribution(0), []float64{5}, TransientOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestUniformizedWindow: Window reports the window a Transient call over
// the same points commits to, and 0, 0 for a chain without transitions.
func TestUniformizedWindow(t *testing.T) {
	c := absorbingCycle(t)
	u, err := NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0.5, 3, 12}
	opts := TransientOptions{Epsilon: 1e-9}
	res, err := u.Transient(c.PointDistribution(0), nil, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	left, right, err := u.Window(times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if left != res.FoxGlynnLeft || right != res.FoxGlynnRight {
		t.Errorf("Window = [%d,%d], Transient committed to [%d,%d]", left, right, res.FoxGlynnLeft, res.FoxGlynnRight)
	}

	gen, err := sparse.NewBuilder(2, 2, 0).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := NewUniformized(gen)
	if err != nil {
		t.Fatal(err)
	}
	if left, right, err := frozen.Window([]float64{10}, TransientOptions{}); left != 0 || right != 0 || err != nil {
		t.Errorf("frozen Window = [%d,%d], %v; want [0,0], nil", left, right, err)
	}
}

func stateName(i int) string {
	return string(rune('A' + i))
}

func BenchmarkTransientSmallChain(b *testing.B) {
	var bld Builder
	bld.Transition("idle", "send", 2)
	bld.Transition("idle", "sleep", 1)
	bld.Transition("sleep", "send", 2)
	bld.Transition("send", "idle", 6)
	c, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	alpha := c.PointDistribution(0)
	times := []float64{1, 5, 10, 20, 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transientDistributions(c.Generator(), alpha, times, TransientOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
