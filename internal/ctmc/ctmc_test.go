package ctmc

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/sparse"
)

// twoState builds the chain 0 --a--> 1, 1 --b--> 0.
func twoState(t *testing.T, a, b float64) *Chain {
	t.Helper()
	var bld Builder
	bld.Transition("zero", "one", a)
	bld.Transition("one", "zero", b)
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuilderBasics(t *testing.T) {
	var b Builder
	if i := b.State("idle"); i != 0 {
		t.Fatalf("first state index = %d", i)
	}
	if i := b.State("idle"); i != 0 {
		t.Fatalf("repeated state index = %d", i)
	}
	b.Transition("idle", "send", 2)
	b.Transition("send", "idle", 6)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 2 {
		t.Errorf("NumStates = %d", c.NumStates())
	}
	if c.Name(1) != "send" || c.Index("send") != 1 {
		t.Errorf("name/index mismatch: %q, %d", c.Name(1), c.Index("send"))
	}
	if c.Index("nope") != -1 {
		t.Errorf("Index of unknown state = %d", c.Index("nope"))
	}
	if got := c.ExitRate(0); got != 2 {
		t.Errorf("ExitRate(0) = %v", got)
	}
	if got := entry(c.Generator(), 0, 0); got != -2 {
		t.Errorf("Q[0][0] = %v", got)
	}
}

func TestBuilderRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		var b Builder
		b.Transition("a", "b", rate)
		if _, err := b.Build(); !errors.Is(err, ErrInvalidChain) {
			t.Errorf("rate %v: err = %v, want ErrInvalidChain", rate, err)
		}
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	var b Builder
	b.Transition("a", "a", 1)
	if _, err := b.Build(); !errors.Is(err, ErrInvalidChain) {
		t.Errorf("err = %v, want ErrInvalidChain", err)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	var b Builder
	if _, err := b.Build(); !errors.Is(err, ErrInvalidChain) {
		t.Errorf("err = %v, want ErrInvalidChain", err)
	}
}

func TestBuilderMergesParallelTransitions(t *testing.T) {
	var b Builder
	b.Transition("a", "b", 1)
	b.Transition("a", "b", 2.5)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := entry(c.Generator(), 0, 1); got != 3.5 {
		t.Errorf("merged rate = %v, want 3.5", got)
	}
	if got := c.ExitRate(0); got != 3.5 {
		t.Errorf("exit rate = %v, want 3.5", got)
	}
}

func TestAbsorbingState(t *testing.T) {
	var b Builder
	b.Transition("live", "dead", 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ExitRate(c.Index("dead")); got != 0 {
		t.Errorf("dead state exit rate = %v, want 0 (absorbing)", got)
	}
	if got := c.ExitRate(c.Index("live")); got != 1 {
		t.Errorf("live state exit rate = %v, want 1", got)
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	a, bRate := 2.0, 6.0
	c := twoState(t, a, bRate)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// π = (b, a)/(a+b).
	if math.Abs(pi[0]-bRate/(a+bRate)) > 1e-12 || math.Abs(pi[1]-a/(a+bRate)) > 1e-12 {
		t.Errorf("pi = %v", pi)
	}
}

func TestSteadyStateSimpleModel(t *testing.T) {
	// The paper's simple wireless model (Figure 4): idle->send (2/h),
	// idle->sleep (1/h), sleep->send (2/h), send->idle (6/h).
	// Balance gives π = (1/2, 1/4, 1/4).
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
	want := map[string]float64{"idle": 0.5, "send": 0.25, "sleep": 0.25}
	for name, p := range want {
		if got := pi[c.Index(name)]; math.Abs(got-p) > 1e-12 {
			t.Errorf("pi[%s] = %v, want %v", name, got, p)
		}
	}
}

func TestSteadyStateBalanceProperty(t *testing.T) {
	// πQ must vanish for an arbitrary irreducible chain.
	var b Builder
	b.Transition("a", "b", 1.3)
	b.Transition("b", "c", 0.7)
	b.Transition("c", "a", 2.2)
	b.Transition("a", "c", 0.4)
	b.Transition("c", "b", 1.1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("steady state sums to %v", sum)
	}
	flow := make([]float64, c.NumStates())
	if err := c.Generator().Transpose().MulVec(flow, pi); err != nil {
		t.Fatal(err)
	}
	for i, f := range flow {
		if math.Abs(f) > 1e-12 {
			t.Errorf("(πQ)[%d] = %v, want 0", i, f)
		}
	}
}

func TestNewChainValidation(t *testing.T) {
	// Hand-build an invalid generator: negative off-diagonal.
	c := twoState(t, 1, 1)
	if _, err := NewChain([]string{"only"}, c.Generator()); !errors.Is(err, ErrInvalidChain) {
		t.Errorf("wrong name count: err = %v", err)
	}
}

func TestPointAndUniformDistributions(t *testing.T) {
	c := twoState(t, 1, 1)
	p := c.PointDistribution(1)
	if p[0] != 0 || p[1] != 1 {
		t.Errorf("PointDistribution = %v", p)
	}
}

// entry returns the value of g at (r, c); absent entries are zero.
func entry(g *sparse.CSR, r, c int) float64 {
	v := 0.0
	g.Row(r, func(col int, x float64) {
		if col == c {
			v = x
		}
	})
	return v
}

// transientDistributions computes the full state distribution of the
// CTMC with the given generator at each time point via uniformisation.
func transientDistributions(gen *sparse.CSR, alpha, times []float64, opts TransientOptions) (*Result, error) {
	u, err := NewUniformized(gen)
	if err != nil {
		return nil, err
	}
	return u.Transient(alpha, nil, times, opts)
}

// transientFunctional solves the functional w·π(t) on a fresh operator.
func transientFunctional(gen Generator, alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	u, err := NewUniformized(gen)
	if err != nil {
		return nil, err
	}
	return u.Transient(alpha, w, times, opts)
}

// uniform returns the uniform distribution over n states.
func uniform(n int) []float64 {
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	return alpha
}
