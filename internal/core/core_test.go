package core

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/sparse"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// onOffModel builds the Figure 7/8 KiBaMRM: Erlang-1 on/off workload at
// f = 1 Hz drawing 0.96 A, on a 7200 As battery.
func onOffModel(t *testing.T, c, k float64) mrm.KiBaMRM {
	t.Helper()
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	return mrm.KiBaMRM{
		Workload: w.Chain,
		Currents: w.Currents,
		Initial:  w.Initial,
		Battery:  kibam.Params{Capacity: 7200, C: c, K: k},
	}
}

// alwaysOnModel is a degenerate single-state workload drawing a constant
// current; with c = 1 its lifetime CDF has the Erlang closed form.
func alwaysOnModel(t *testing.T, capacity, current float64) mrm.KiBaMRM {
	t.Helper()
	var b ctmc.Builder
	b.State("on")
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mrm.KiBaMRM{
		Workload: chain,
		Currents: []float64{current},
		Initial:  []float64{1},
		Battery:  kibam.Params{Capacity: capacity, C: 1, K: 0},
	}
}

func erlangCDF(k int, rate, t float64) float64 {
	sum, term := 0.0, 1.0
	for i := 0; i < k; i++ {
		if i > 0 {
			term *= rate * t / float64(i)
		}
		sum += term
	}
	return 1 - math.Exp(-rate*t)*sum
}

func TestBuildValidatesModel(t *testing.T) {
	m := onOffModel(t, 1, 0)
	m.Currents = m.Currents[:1]
	if _, err := Build(m, 100, Options{}); !errors.Is(err, mrm.ErrBadModel) {
		t.Errorf("err = %v, want ErrBadModel", err)
	}
}

func TestBuildRejectsBadDelta(t *testing.T) {
	m := onOffModel(t, 1, 0)
	for _, delta := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := Build(m, delta, Options{}); !errors.Is(err, ErrBadGrid) {
			t.Errorf("delta %v: err = %v, want ErrBadGrid", delta, err)
		}
	}
	// 7000 does not divide 7200.
	if _, err := Build(m, 7000, Options{}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("non-divisor delta: err = %v, want ErrBadGrid", err)
	}
	// Two-well battery: delta must divide both wells.
	m2 := onOffModel(t, 0.625, 4.5e-5)
	if _, err := Build(m2, 4500, Options{}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("non-divisor of bound well: err = %v, want ErrBadGrid", err)
	}
	// Delta equal to the whole available well leaves a single level.
	if _, err := Build(m, 7200, Options{}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("single-level grid: err = %v, want ErrBadGrid", err)
	}
}

func TestPaperStateCountDelta5(t *testing.T) {
	// Section 6.1: "the CTMC for Δ = 5 has 2882 states" (on/off model,
	// C = 7200 As, c = 1).
	e, err := Build(onOffModel(t, 1, 0), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumStates() != 2882 {
		t.Errorf("states = %d, paper reports 2882", e.NumStates())
	}
}

func TestGridDimensions(t *testing.T) {
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := e.n1, e.n2
	// u1 = 4500, u2 = 2700: 181 and 109 levels.
	if n1 != 181 || n2 != 109 {
		t.Errorf("levels = (%d, %d), want (181, 109)", n1, n2)
	}
	if e.NumStates() != 181*109*2 {
		t.Errorf("states = %d", e.NumStates())
	}
	if e.delta != 25 {
		t.Errorf("delta = %v", e.delta)
	}
}

// rowSum returns the sum of the entries in one row of g.
func rowSum(g *sparse.CSR, r int) float64 {
	s := 0.0
	g.Row(r, func(_ int, v float64) { s += v })
	return s
}

func TestGeneratorRowSums(t *testing.T) {
	// Q* must be a proper generator: rows sum to zero (absorbing rows
	// are all-zero).
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 900, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := e.Generator()
	for r := 0; r < g.Rows(); r++ {
		if s := rowSum(g, r); math.Abs(s) > 1e-9 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestEmptyStatesAbsorbing(t *testing.T) {
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 900, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 2 // workload states
	g := e.Generator()
	for j2 := 0; j2 < e.n2; j2++ {
		for i := 0; i < n; i++ {
			row := e.index(i, 0, j2)
			count := 0
			g.Row(row, func(int, float64) { count++ })
			if count != 0 {
				t.Fatalf("empty state (i=%d, j2=%d) has %d transitions", i, j2, count)
			}
		}
	}
}

func TestErlangClosedFormDegenerate(t *testing.T) {
	// Single always-on state, c = 1: reaching j1 = 0 from j1 = C/Δ − 1
	// takes C/Δ − 1 consumption jumps at rate I/Δ, so the lifetime CDF
	// is an Erlang(C/Δ − 1, I/Δ) CDF.
	const capacity, current, delta = 1000.0, 2.0, 50.0
	m := alwaysOnModel(t, capacity, current)
	e, err := Build(m, delta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jumps := int(capacity/delta) - 1
	rate := current / delta
	times := []float64{100, 300, 475, 500, 525, 700}
	res, err := e.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range times {
		want := erlangCDF(jumps, rate, tm)
		if math.Abs(res.EmptyProb[k]-want) > 1e-8 {
			t.Errorf("t=%v: Pr = %v, want Erlang %v", tm, res.EmptyProb[k], want)
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{2000, 6000, 10000, 14000, 18000, 25000}
	res, err := e.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for k, p := range res.EmptyProb {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if p < prev-1e-9 {
			t.Fatalf("CDF decreases at t=%v: %v -> %v", times[k], prev, p)
		}
		prev = p
	}
	if res.EmptyProb[0] > 1e-6 {
		t.Errorf("battery empty too early: Pr[empty at 2000] = %v", res.EmptyProb[0])
	}
	if res.EmptyProb[len(times)-1] < 0.999 {
		t.Errorf("battery not empty at 25000 s: %v", res.EmptyProb[len(times)-1])
	}
}

func TestConvergenceWithDelta(t *testing.T) {
	// Figure 7: as Δ decreases the approximation approaches the (nearly
	// deterministic) true lifetime at 15000 s. The CDF evaluated just
	// before the true lifetime must shrink with Δ, and just after must
	// grow: the phase-type approximation sharpens.
	var before, after []float64
	for _, delta := range []float64{100, 50, 25} {
		e, err := Build(onOffModel(t, 1, 0), delta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.LifetimeCDF([]float64{13000, 17000})
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, res.EmptyProb[0])
		after = append(after, res.EmptyProb[1])
	}
	for i := 1; i < len(before); i++ {
		if before[i] >= before[i-1] {
			t.Errorf("CDF(13000) did not shrink with delta: %v", before)
		}
		if after[i] <= after[i-1] {
			t.Errorf("CDF(17000) did not grow with delta: %v", after)
		}
	}
}

func TestMedianNearDeterministicLifetime(t *testing.T) {
	// The on/off workload at f = 1 Hz spends half its time on, so the
	// c = 1 battery dies around 2·C/I = 15000 s. The CDF at the median
	// must be near one half for a reasonably fine grid.
	e, err := Build(onOffModel(t, 1, 0), 25, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LifetimeCDF([]float64{15000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EmptyProb[0]-0.5) > 0.06 {
		t.Errorf("Pr[empty at 15000] = %v, want ≈ 0.5", res.EmptyProb[0])
	}
}

func TestBoundChargeExtendsLifetime(t *testing.T) {
	// Figure 9's ordering at a fixed time in the transition region:
	// (C=4500, c=1) dies first, (C=7200, c=0.625) second,
	// (C=7200, c=1) last.
	delta := 100.0
	build := func(capacity, c, k float64) float64 {
		m := onOffModel(t, c, k)
		m.Battery = kibam.Params{Capacity: capacity, C: c, K: k}
		e, err := Build(m, delta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.LifetimeCDF([]float64{12000})
		if err != nil {
			t.Fatal(err)
		}
		return res.EmptyProb[0]
	}
	small := build(4500, 1, 0)
	twoWell := build(7200, 0.625, 4.5e-5)
	big := build(7200, 1, 0)
	if !(small > twoWell && twoWell > big) {
		t.Errorf("Pr[empty at 12000]: C=4500 %v, two-well %v, C=7200 %v — want strictly decreasing",
			small, twoWell, big)
	}
}

// stateDistribution returns the marginal distribution over available-
// charge levels at time t: out[j1] = Pr{Y1(t) ∈ level j1}.
func stateDistribution(t *testing.T, e *Expanded, tm float64) []float64 {
	t.Helper()
	pi := distributionAt(t, e, tm)
	n := e.model.Workload.NumStates()
	out := make([]float64, e.n1)
	for j1 := 0; j1 < e.n1; j1++ {
		for j2 := 0; j2 < e.n2; j2++ {
			for i := 0; i < n; i++ {
				out[j1] += pi[e.index(i, j1, j2)]
			}
		}
	}
	return out
}

func TestStateDistributionDrainsDownward(t *testing.T) {
	e, err := Build(onOffModel(t, 1, 0), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	early, late := stateDistribution(t, e, 1000), stateDistribution(t, e, 14000)
	meanLevel := func(d []float64) float64 {
		m, tot := 0.0, 0.0
		for j, p := range d {
			m += float64(j) * p
			tot += p
		}
		if math.Abs(tot-1) > 1e-9 {
			t.Fatalf("marginal sums to %v", tot)
		}
		return m
	}
	if meanLevel(late) >= meanLevel(early) {
		t.Error("mean charge level did not decrease over time")
	}
}

func TestResultMetadata(t *testing.T) {
	e, err := Build(onOffModel(t, 1, 0), 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.LifetimeCDF([]float64{5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != e.NumStates() || res.NNZ != e.NNZ() {
		t.Errorf("metadata states/nnz = %d/%d, want %d/%d", res.States, res.NNZ, e.NumStates(), e.NNZ())
	}
	if res.Iterations <= 0 || res.Rate <= 0 {
		t.Errorf("iterations %d, rate %v", res.Iterations, res.Rate)
	}
	// Uniformisation constant: dominated by the workload rate λ = 2
	// plus consumption I/Δ.
	if res.Rate < 2 || res.Rate > 2.2 {
		t.Errorf("uniformisation rate = %v, want ≈ 2.05", res.Rate)
	}
}
