package core

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
)

func TestPhasedMatchesHomogeneous(t *testing.T) {
	model := onOffModel(t, 0.625, 4.5e-5)
	times := []float64{5000, 12000, 18000}
	direct, err := Build(model, 300, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	got, err := phasedLifetimeCDF([]modelPhase{
		{Model: model, Duration: 7000},
		{Model: model, Duration: math.Inf(1)},
	}, 300, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if math.Abs(got.EmptyProb[k]-want.EmptyProb[k]) > 1e-8 {
			t.Errorf("t=%v: phased %v vs direct %v", times[k], got.EmptyProb[k], want.EmptyProb[k])
		}
	}
}

func TestPhasedIdlePhaseFreezesDepletion(t *testing.T) {
	// Phase 2 draws no current; during it the empty probability cannot
	// grow (no consumption, and empties are absorbing anyway).
	active := onOffModel(t, 1, 0)
	idle := active
	idle.Currents = []float64{0, 0}
	phases := []modelPhase{
		{Model: active, Duration: 10000},
		{Model: idle, Duration: 10000},
		{Model: active, Duration: math.Inf(1)},
	}
	times := []float64{10000, 15000, 20000, 25000, 30000}
	res, err := phasedLifetimeCDF(phases, 100, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.EmptyProb[0]-res.EmptyProb[1]) > 1e-9 ||
		math.Abs(res.EmptyProb[1]-res.EmptyProb[2]) > 1e-9 {
		t.Errorf("CDF moved during idle phase: %v", res.EmptyProb[:3])
	}
	if res.EmptyProb[4] <= res.EmptyProb[2] {
		t.Errorf("CDF did not resume after idle phase: %v", res.EmptyProb)
	}
}

func TestPhasedDayNightOrdering(t *testing.T) {
	// A light-then-heavy schedule must deplete later than heavy-always,
	// earlier than light-always, at every time point.
	heavy := onOffModel(t, 1, 0)
	light := heavy
	light.Currents = []float64{0.24, 0}
	const nightLen = 8000.0
	times := []float64{12000, 20000, 30000}

	phased, err := phasedLifetimeCDF([]modelPhase{
		{Model: light, Duration: nightLen},
		{Model: heavy, Duration: math.Inf(1)},
	}, 100, times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heavyAll, err := Build(heavy, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := heavyAll.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	lightAll, err := Build(light, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lres, err := lightAll.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if !(phased.EmptyProb[k] <= hres.EmptyProb[k]+1e-9 && phased.EmptyProb[k] >= lres.EmptyProb[k]-1e-9) {
			t.Errorf("t=%v: phased %v not between light %v and heavy %v",
				times[k], phased.EmptyProb[k], lres.EmptyProb[k], hres.EmptyProb[k])
		}
	}
}

func TestPhasedMismatchErrors(t *testing.T) {
	a := onOffModel(t, 0.625, 4.5e-5)
	// Different battery.
	b := a
	b.Battery = kibam.Params{Capacity: 3600, C: 0.5, K: 1e-5}
	if _, err := phasedLifetimeCDF([]modelPhase{
		{Model: a, Duration: 10},
		{Model: b, Duration: math.Inf(1)},
	}, 300, []float64{5}, Options{}); !errors.Is(err, ErrPhaseMismatch) {
		t.Errorf("battery mismatch: err = %v", err)
	}
	// Different workload size.
	w, err := workload.OnOff(1, 2, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	c := mrm.KiBaMRM{Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: a.Battery}
	if _, err := phasedLifetimeCDF([]modelPhase{
		{Model: a, Duration: 10},
		{Model: c, Duration: math.Inf(1)},
	}, 300, []float64{5}, Options{}); !errors.Is(err, ErrPhaseMismatch) {
		t.Errorf("state-count mismatch: err = %v", err)
	}
	if _, err := phasedLifetimeCDF(nil, 300, []float64{5}, Options{}); !errors.Is(err, ErrPhaseMismatch) {
		t.Errorf("no phases: err = %v", err)
	}
}

// modelPhase is one segment of a test schedule: a model in force for
// Duration seconds.
type modelPhase struct {
	Model    mrm.KiBaMRM
	Duration float64
}

// phasedLifetimeCDF builds every phase's chain with step delta and
// solves the schedule on their cached operators.
func phasedLifetimeCDF(phases []modelPhase, delta float64, times []float64, opts Options) (*Result, error) {
	xs := make([]*Expanded, len(phases))
	durations := make([]float64, len(phases))
	for i, ph := range phases {
		e, err := Build(ph.Model, delta, opts)
		if err != nil {
			return nil, err
		}
		xs[i], durations[i] = e, ph.Duration
	}
	return PhasedLifetimeCDFExpanded(xs, durations, times, SolveOptions{})
}

// TestPhasedGoldenBits pins the phased CDFs of the schedules above bit
// for bit, as the piecewise solve computed them when every phase
// re-uniformised its generator: running phases on the models' cached
// operators must not change a single value.
func TestPhasedGoldenBits(t *testing.T) {
	model := onOffModel(t, 0.625, 4.5e-5)
	active := onOffModel(t, 1, 0)
	idle := active
	idle.Currents = []float64{0, 0}
	light := active
	light.Currents = []float64{0.24, 0}
	for _, tc := range []struct {
		name   string
		phases []modelPhase
		delta  float64
		times  []float64
		want   []uint64
		iters  int
	}{
		{"homogeneous split", []modelPhase{{model, 7000}, {model, math.Inf(1)}}, 300,
			[]float64{5000, 12000, 18000},
			[]uint64{0x3f8c6ae4b3833ce2, 0x3fe6489f423a4eb0, 0x3fef7b22a15239d3}, 39064},
		{"idle phase", []modelPhase{{active, 10000}, {idle, 10000}, {active, math.Inf(1)}}, 100,
			[]float64{10000, 15000, 20000, 25000, 30000},
			[]uint64{0x3f52a3437b1e1ba7, 0x3f52a3437b1e1ba7, 0x3f52a3437b1e1bb5, 0x3fe200a5faca1b20, 0x3fefe49b65f40b2f}, 43805},
		{"day/night", []modelPhase{{light, 8000}, {active, math.Inf(1)}}, 100,
			[]float64{12000, 20000, 30000},
			[]uint64{0x3dbd1d21e578eb97, 0x3fd59a9da4c94064, 0x3feffff7c1e98ad2}, 64300},
	} {
		res, err := phasedLifetimeCDF(tc.phases, tc.delta, tc.times, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for k, want := range tc.want {
			if got := math.Float64bits(res.EmptyProb[k]); got != want {
				t.Errorf("%s: t=%v: %v (%#x), want %v (%#x)", tc.name, tc.times[k],
					res.EmptyProb[k], got, math.Float64frombits(want), want)
			}
		}
		if res.Iterations != tc.iters || res.SpMVs != res.Iterations {
			t.Errorf("%s: Iterations = %d, SpMVs = %d; want both %d", tc.name, res.Iterations, res.SpMVs, tc.iters)
		}
	}
}
