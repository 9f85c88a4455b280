package ctmc_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"batlife/internal/core"
	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/sparse"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// layoutModel is one expanded chain of the layout comparison.
type layoutModel struct {
	name  string
	bands int // Pᵀ's band count
	// periods is each band's period, 0 where the band is stored row by
	// row, and stored the values the bands hold.
	periods []int
	stored  int
	x       *core.Expanded
	alpha   []float64
	times   []float64
}

// paperModels expands the paper's Fig. 7–11 models and the harvesting
// example's charging model, at step sizes small enough for a unit test.
func paperModels(t *testing.T) []layoutModel {
	t.Helper()
	fromWorkload := func(m *workload.Model, err error) mrm.KiBaMRM {
		if err != nil {
			t.Fatal(err)
		}
		return mrm.KiBaMRM{Workload: m.Chain, Currents: m.Currents, Initial: m.Initial}
	}
	withBattery := func(m mrm.KiBaMRM, capacityAs, c, k float64) mrm.KiBaMRM {
		m.Battery = kibam.Params{Capacity: capacityAs, C: c, K: k}
		return m
	}
	onOff := fromWorkload(workload.OnOff(1, 1, units.Amperes(0.96)))
	erlang4 := fromWorkload(workload.OnOff(1, 4, units.Amperes(0.96)))
	simple := fromWorkload(workload.Simple(workload.SimpleConfig{}))
	burst := fromWorkload(workload.Burst(workload.BurstConfig{}))
	mah := func(v float64) float64 { return units.MilliampHours(v).AmpereSeconds() }
	hours := []float64{5 * 3600, 15 * 3600}

	models := []struct {
		name    string
		bands   int
		periods []int
		stored  int
		m       mrm.KiBaMRM
		delta   float64
		times   []float64
	}{
		{"fig7", 4, []int{0, 0, 0, 0}, 584, withBattery(onOff, 7200, 1, 0), 100, []float64{1500, 3000}},
		{"fig8", 5, []int{0, 2, 0, 2, 2}, 7027, withBattery(onOff, 7200, 0.625, 4.5e-5), 100, []float64{1500, 3000}},
		{"fig9-erlang4", 5, []int{0, 8, 0, 8, 8}, 11881, withBattery(erlang4, 7200, 0.625, 4.5e-5), 150, []float64{1000}},
		{"fig10", 6, []int{0, 3, 3, 0, 3, 3}, 4935, withBattery(simple, mah(800), 0.625, 4.5e-5), mah(20), hours},
		{"fig11", 8, []int{0, 5, 5, 0, 5, 5, 5, 5}, 8205, withBattery(burst, mah(800), 0.625, 4.5e-5), mah(20), hours},
		{"harvesting", 8, []int{4, 0, 4, 2, 0, 2, 4, 4}, 7254, withBattery(gateway(t), mah(3000), 0.625, 4.5e-5), 270, hours},
	}
	out := make([]layoutModel, len(models))
	for i, m := range models {
		x, alpha := expandFull(t, m.m, m.delta)
		out[i] = layoutModel{name: m.name, bands: m.bands, periods: m.periods, stored: m.stored, x: x, alpha: alpha, times: m.times}
	}
	return out
}

// expandFull expands m at step size delta and returns the chain with the
// initial distribution of a full battery, as core starts it: workload
// state i at levels (n1−2, n2−2) is state (j1·n2 + j2)·n + i, with n1
// and n2 the level counts u/Δ + 1 of the two wells.
func expandFull(t *testing.T, m mrm.KiBaMRM, delta float64) (*core.Expanded, []float64) {
	t.Helper()
	x, err := core.Build(m, delta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bat := m.Battery
	n1 := int(math.Round(bat.C*bat.Capacity/delta)) + 1
	n2 := int(math.Round((1-bat.C)*bat.Capacity/delta)) + 1
	n := len(m.Initial)
	j2 := max(n2-2, 0)
	alpha := make([]float64, x.NumStates())
	copy(alpha[((n1-2)*n2+j2)*n:], m.Initial)
	return x, alpha
}

// TestPeriodicBandLayout pins which of Pᵀ's bands are stored as a
// period, with which period, and how many values the bands hold, on the
// models of paperModels and on the benchmark's Fig. 8 (Δ = 50) and
// Fig. 10 (Δ = 2 mAh) grids. A workload band and a consumption band
// depend only on the workload state i = r mod n outside the absorbing
// slice and the matrix ends, so they repeat with period n (2 on the
// on/off models, 3 on Fig. 10's); the diagonal and the transfer band
// depend on the levels too and stay row by row. Every periodic band's
// table spans bandTile rows plus the lcm of the periods: 4 for the
// harvesting model's periods 2 and 4.
func TestPeriodicBandLayout(t *testing.T) {
	models := paperModels(t)
	mah := func(v float64) float64 { return units.MilliampHours(v).AmpereSeconds() }
	for _, big := range []struct {
		name    string
		periods []int
		stored  int
		w       func() (*workload.Model, error)
		battery kibam.Params
		delta   float64
	}{
		{"fig8-delta50", []int{0, 2, 0, 2, 2}, 22219,
			func() (*workload.Model, error) { return workload.OnOff(1, 1, units.Amperes(0.96)) },
			kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}, 50},
		{"fig10-delta2mAh", []int{0, 3, 3, 0, 3, 3}, 233085,
			func() (*workload.Model, error) { return workload.Simple(workload.SimpleConfig{}) },
			kibam.Params{Capacity: mah(800), C: 0.625, K: 4.5e-5}, mah(2)},
	} {
		w, err := big.w()
		if err != nil {
			t.Fatal(err)
		}
		x, err := core.Build(mrm.KiBaMRM{Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: big.battery}, big.delta, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", big.name, err)
		}
		models = append(models, layoutModel{name: big.name, periods: big.periods, stored: big.stored, x: x})
	}
	for _, m := range models {
		u, err := ctmc.NewUniformized(m.x.Generator())
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		b := u.Banded()
		if b == nil {
			t.Fatalf("%s: Pᵀ is not banded", m.name)
		}
		periodic := 0
		for _, p := range m.periods {
			if p > 0 {
				periodic++
			}
		}
		if got := b.Periods(); !slices.Equal(got, m.periods) || b.PeriodicBands() != periodic || b.StoredValues() != m.stored {
			t.Errorf("%s: offsets %v have periods %v (%d periodic), %d values stored; want %v (%d), %d",
				m.name, b.Offsets(), got, b.PeriodicBands(), b.StoredValues(), m.periods, periodic, m.stored)
		}
	}
}

// gateway is the harvesting example's four-state sun/cloud workload
// with a 0.1 A panel: its sunny states charge the battery.
func gateway(t *testing.T) mrm.KiBaMRM {
	t.Helper()
	var b ctmc.Builder
	const relayEnd, relayStart, sky = 1.0 / (20 * 60), 1.0 / (40 * 60), 1.0 / (90 * 60)
	b.Transition("relay/sun", "standby/sun", relayEnd)
	b.Transition("relay/cloud", "standby/cloud", relayEnd)
	b.Transition("standby/sun", "relay/sun", relayStart)
	b.Transition("standby/cloud", "relay/cloud", relayStart)
	for _, mode := range []string{"relay", "standby"} {
		b.Transition(mode+"/sun", mode+"/cloud", sky)
		b.Transition(mode+"/cloud", mode+"/sun", sky)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	currents := make([]float64, c.NumStates())
	for name, a := range map[string]float64{"relay/sun": 0.05, "relay/cloud": 0.15, "standby/sun": -0.08, "standby/cloud": 0.02} {
		currents[c.Index(name)] = a
	}
	return mrm.KiBaMRM{Workload: c, Currents: currents, Initial: c.PointDistribution(c.Index("standby/cloud")), AllowCharging: true}
}

// sameResult fails unless the two results agree bit for bit in every
// answer and in the work and trimming they report.
func sameResult(t *testing.T, label string, banded, csr *ctmc.Result) {
	t.Helper()
	if banded.Iterations != csr.Iterations || banded.SpMVs != csr.SpMVs || banded.WindowRows != csr.WindowRows ||
		banded.WindowPlans != csr.WindowPlans || math.Float64bits(banded.DroppedMass) != math.Float64bits(csr.DroppedMass) {
		t.Fatalf("%s: iterations/SpMVs/rows/plans/dropped %d/%d/%d/%d/%v, against %d/%d/%d/%d/%v", label,
			banded.Iterations, banded.SpMVs, banded.WindowRows, banded.WindowPlans, banded.DroppedMass,
			csr.Iterations, csr.SpMVs, csr.WindowRows, csr.WindowPlans, csr.DroppedMass)
	}
	for k := range banded.Values {
		if math.Float64bits(banded.Values[k]) != math.Float64bits(csr.Values[k]) {
			t.Fatalf("%s: value %d banded %v, CSR %v", label, k, banded.Values[k], csr.Values[k])
		}
	}
	for k := range banded.Distributions {
		for i := range banded.Distributions[k] {
			if math.Float64bits(banded.Distributions[k][i]) != math.Float64bits(csr.Distributions[k][i]) {
				t.Fatalf("%s: π(t%d)[%d] banded %v, CSR %v", label, k, i, banded.Distributions[k][i], csr.Distributions[k][i])
			}
		}
	}
	if len(banded.Values) != len(csr.Values) || len(banded.Distributions) != len(csr.Distributions) {
		t.Fatalf("%s: result shapes differ", label)
	}
}

// TestBandedOperatorMatchesCSR solves the paper's models with Pᵀ as
// bands and as CSR: functionals over several time points, a
// single-point distribution solve, and a multi-point distribution solve
// must agree bit for bit, along with iterations, SpMVs, window rows and
// dropped mass. Each expanded model has at most 8 offsets, so the
// default operator is banded.
func TestBandedOperatorMatchesCSR(t *testing.T) {
	for _, m := range paperModels(t) {
		t.Run(m.name, func(t *testing.T) {
			gen := m.x.Generator()
			banded, err := ctmc.NewUniformized(gen)
			if err != nil {
				t.Fatal(err)
			}
			if banded.Bands() != m.bands {
				t.Fatalf("Pᵀ has %d bands, want %d", banded.Bands(), m.bands)
			}
			csr, err := ctmc.NewUniformizedCSR(gen)
			if err != nil {
				t.Fatal(err)
			}
			if csr.Bands() != 0 {
				t.Fatalf("CSR operator reports %d bands", csr.Bands())
			}
			alpha := m.alpha
			rng := rand.New(rand.NewSource(9))
			w := make([]float64, len(alpha))
			for i := range w {
				if rng.Intn(3) == 0 {
					w[i] = rng.Float64()
				}
			}
			pool := sparse.NewPool(1)
			defer pool.Close()
			for _, tc := range []struct {
				name  string
				w     []float64
				times []float64
			}{
				{"functional", w, m.times},
				{"single-point distribution", nil, m.times[:1]},
				{"distributions", nil, m.times},
			} {
				solve := func(u *ctmc.Uniformized) *ctmc.Result {
					res, err := u.Transient(alpha, tc.w, tc.times, ctmc.TransientOptions{Pool: pool})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				sameResult(t, tc.name, solve(banded), solve(csr))
			}
		})
	}
}

// TestBandedParallelMatchesCSR runs a birth-death chain whose window is
// large enough for two strands through both layouts on a two-worker
// pool: the banded products split between the caller and the lent
// worker must match the CSR ones bit for bit, and both solves must have
// run on two strands.
func TestBandedParallelMatchesCSR(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n = 30000
	var b ctmc.Builder
	name := func(i int) string { return fmt.Sprint(i) }
	for i := 0; i+1 < n; i++ {
		b.Transition(name(i), name(i+1), 1+float64(i%7)/10)
		b.Transition(name(i+1), name(i), 0.5+float64(i%5)/10)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i % 3)
	}
	banded, err := ctmc.NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if banded.Bands() != 3 {
		t.Fatalf("birth-death Pᵀ has %d bands, want 3", banded.Bands())
	}
	csr, err := ctmc.NewUniformizedCSR(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool := sparse.NewPoolObs(2, reg)
	defer pool.Close()
	solve := func(u *ctmc.Uniformized) *ctmc.Result {
		res, err := u.Transient(alpha, w, []float64{1, 4}, ctmc.TransientOptions{Pool: pool, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "birth-death", solve(banded), solve(csr))
	var bands, periodic, kernels []string
	for _, s := range reg.Tracer().Spans() {
		if s.Name == "ctmc.transient" {
			bands = append(bands, s.Attrs["bands"])
			periodic = append(periodic, s.Attrs["periodic_bands"])
			kernels = append(kernels, s.Attrs["kernel"])
			if s.Attrs["strands"] != "2" {
				t.Errorf("a solve of the %s chain ran on %s strands, want 2", s.Attrs["kernel"], s.Attrs["strands"])
			}
		}
	}
	if len(bands) != 2 || bands[0] != "3" || bands[1] != "0" {
		t.Errorf("ctmc.transient spans have bands %q, want [3 0]", bands)
	}
	// The rates repeat every 7 and 5 states, so the two off-diagonal
	// bands are periodic and the diagonal, with period 35, is not.
	if len(periodic) != 2 || periodic[0] != "2" || periodic[1] != "0" {
		t.Errorf("ctmc.transient spans have periodic_bands %q, want [2 0]", periodic)
	}
	// The banded kernel is "bands" or "bands-avx2" by machine; any
	// Banded reports the one this build runs.
	probe, err := sparse.NewBanded(1, []int{0}, [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := probe.Kernel(); len(kernels) != 2 || kernels[0] != want || kernels[1] != "csr" {
		t.Errorf("ctmc.transient spans have kernel %q, want [%s csr]", kernels, want)
	}
}

// TestOperatorFromRowsMatchesCSR builds Pᵀ twice for each model: from
// the expanded chain's closed-form rows, which is how solves build it,
// and from the CSR that Generator assembles from those rows. q, the
// offsets, the periods, the stored value count and every band value
// must agree bit for bit. A band value is read back through products
// with probe vectors: x is 1 on the columns congruent to s modulo a
// stride wider than the band span, so each row's product picks out
// exactly one entry.
func TestOperatorFromRowsMatchesCSR(t *testing.T) {
	mah := func(v float64) float64 { return units.MilliampHours(v).AmpereSeconds() }
	onOff, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	model := func(w *workload.Model, capacityAs, c, k float64) mrm.KiBaMRM {
		return mrm.KiBaMRM{Workload: w.Chain, Currents: w.Currents, Initial: w.Initial,
			Battery: kibam.Params{Capacity: capacityAs, C: c, K: k}}
	}
	charging := gateway(t)
	charging.Battery = kibam.Params{Capacity: mah(3000), C: 0.625, K: 4.5e-5}
	for _, tc := range []struct {
		name  string
		m     mrm.KiBaMRM
		delta float64
	}{
		{"fig7", model(onOff, 7200, 1, 0), 100},
		{"fig8-delta100", model(onOff, 7200, 0.625, 4.5e-5), 100},
		{"fig8-delta50", model(onOff, 7200, 0.625, 4.5e-5), 50},
		{"fig8-k0", model(onOff, 7200, 0.625, 0), 100},
		{"fig10-delta10mAh", model(simple, mah(800), 0.625, 4.5e-5), mah(10)},
		{"harvesting", charging, 270},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := core.Build(tc.m, tc.delta, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fromRows, err := ctmc.NewUniformized(x)
			if err != nil {
				t.Fatal(err)
			}
			fromCSR, err := ctmc.NewUniformized(x.Generator())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fromRows.Rate()) != math.Float64bits(fromCSR.Rate()) {
				t.Fatalf("q from rows %v, from CSR %v", fromRows.Rate(), fromCSR.Rate())
			}
			a, b := fromRows.Banded(), fromCSR.Banded()
			if a == nil || b == nil {
				t.Fatal("Pᵀ is not banded")
			}
			offs := a.Offsets()
			if !slices.Equal(offs, b.Offsets()) || !slices.Equal(a.Periods(), b.Periods()) || a.StoredValues() != b.StoredValues() {
				t.Fatalf("from rows: offsets %v, periods %v, %d values; from CSR: %v, %v, %d",
					offs, a.Periods(), a.StoredValues(), b.Offsets(), b.Periods(), b.StoredValues())
			}
			n := x.NumStates()
			stride := offs[len(offs)-1] - offs[0] + 1
			probe := make([]float64, n)
			got, want := make([]float64, n), make([]float64, n)
			all := []int32{0, int32(n)}
			var planA, planB sparse.Plan
			if err := planA.Build(a, all); err != nil {
				t.Fatal(err)
			}
			if err := planB.Build(b, all); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < stride; s++ {
				for j := range probe {
					probe[j] = 0
					if j%stride == s {
						probe[j] = 1
					}
				}
				if err := planA.MulVec(got, probe); err != nil {
					t.Fatal(err)
				}
				if err := planB.MulVec(want, probe); err != nil {
					t.Fatal(err)
				}
				for r := range got {
					if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Fatalf("Pᵀ row %d, column ≡ %d mod %d: from rows %v, from CSR %v", r, s, stride, got[r], want[r])
					}
				}
			}
		})
	}
}

// TestTwoStrandsMatchOne solves Fig. 8 at Δ = 50, Fig. 10 at Δ = 2 mAh
// and the harvesting example's charging model on a one-worker pool and
// on a two-worker pool, with the two-strand threshold lowered to 64 rows
// so that every window past the first few steps splits: a functional
// over several time points, a single-point distribution solve and
// a multi-point distribution solve must agree bit for bit, with their
// iterations, products, window rows, window plans and dropped mass, and
// every two-worker solve must have run on two strands. Fig. 7 over a
// long horizon adds a solve that stops on the steady-state test.
// Trimming whose budget runs out in the lent worker's rows is covered
// at the window level, by TestWindowReuseMatchesFreshGrow.
func TestTwoStrandsMatchOne(t *testing.T) {
	defer ctmc.SetTwoStrandRows(64)()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	fromWorkload := func(m *workload.Model, err error) mrm.KiBaMRM {
		if err != nil {
			t.Fatal(err)
		}
		return mrm.KiBaMRM{Workload: m.Chain, Currents: m.Currents, Initial: m.Initial}
	}
	withBattery := func(m mrm.KiBaMRM, capacityAs, c, k float64) mrm.KiBaMRM {
		m.Battery = kibam.Params{Capacity: capacityAs, C: c, K: k}
		return m
	}
	onOff := fromWorkload(workload.OnOff(1, 1, units.Amperes(0.96)))
	simple := fromWorkload(workload.Simple(workload.SimpleConfig{}))
	mah := func(v float64) float64 { return units.MilliampHours(v).AmpereSeconds() }
	one := sparse.NewPool(1)
	defer one.Close()
	reg := obs.NewRegistry()
	two := sparse.NewPoolObs(2, reg)
	defer two.Close()
	for _, m := range []struct {
		name   string
		m      mrm.KiBaMRM
		delta  float64
		times  []float64
		steady bool
	}{
		{"fig8", withBattery(onOff, 7200, 0.625, 4.5e-5), 50, []float64{400, 800, 1200}, false},
		{"fig10", withBattery(simple, mah(800), 0.625, 4.5e-5), mah(2), []float64{1800, 3600}, false},
		{"harvesting", withBattery(gateway(t), mah(3000), 0.625, 4.5e-5), 270, []float64{5 * 3600, 15 * 3600}, false},
		{"fig7-settled", withBattery(onOff, 7200, 1, 0), 200, []float64{50000, 60000}, true},
	} {
		t.Run(m.name, func(t *testing.T) {
			x, alpha := expandFull(t, m.m, m.delta)
			u, err := ctmc.NewUniformized(x)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			w := make([]float64, len(alpha))
			for i := range w {
				if rng.Intn(3) == 0 {
					w[i] = rng.Float64()
				}
			}
			for _, tc := range []struct {
				name  string
				w     []float64
				times []float64
			}{
				{"functional", w, m.times},
				{"single-point distribution", nil, m.times[:1]},
				{"distributions", nil, m.times},
			} {
				before := len(reg.Tracer().Spans())
				solve := func(pool *sparse.Pool, reg *obs.Registry) *ctmc.Result {
					res, err := u.Transient(alpha, tc.w, tc.times, ctmc.TransientOptions{Pool: pool, Obs: reg})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got := solve(two, reg)
				sameResult(t, tc.name, got, solve(one, nil))
				if settled := got.Iterations < got.FoxGlynnRight; settled != m.steady {
					t.Errorf("%s: %d iterations of %d: steady state detected %v, want %v", tc.name, got.Iterations, got.FoxGlynnRight, settled, m.steady)
				}
				spans := reg.Tracer().Spans()[before:]
				if len(spans) != 1 || spans[0].Attrs["strands"] != "2" {
					t.Errorf("%s: the two-worker solve recorded spans %v, want one on 2 strands", tc.name, spans)
				}
			}
		})
	}
}

// TestTwoStrandsConcurrentSolves runs two solves on one two-worker
// pool: the first borrows the worker and, at its third step, starts the
// second and waits until that one has run a step, and so has asked for
// the worker. The pool refuses the second ask and the first gives the
// worker back, so only the first solve runs on two strands, and both
// answers equal a one-worker solve's bit for bit.
func TestTwoStrandsConcurrentSolves(t *testing.T) {
	defer ctmc.SetTwoStrandRows(1)()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	on, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	x, alpha := expandFull(t, mrm.KiBaMRM{Workload: on.Chain, Currents: on.Currents, Initial: on.Initial,
		Battery: kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}}, 100)
	u, err := ctmc.NewUniformized(x)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(alpha))
	for i := range w {
		w[i] = float64(i % 5)
	}
	times := []float64{1000, 3000}
	single := sparse.NewPool(1)
	defer single.Close()
	want, err := u.Transient(alpha, w, times, ctmc.TransientOptions{Pool: single})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool := sparse.NewPoolObs(2, reg)
	defer pool.Close()
	var (
		results          [2]*ctmc.Result
		errs             [2]error
		second, asked    = make(chan struct{}), make(chan struct{})
		secondDone       sync.WaitGroup
		opts             = ctmc.TransientOptions{Pool: pool, Obs: reg}
		first, latecomer = opts, opts
	)
	first.OnIteration = func(done, _ int) {
		if done == 3 {
			close(second)
			<-asked
		}
	}
	closeAsked := sync.OnceFunc(func() { close(asked) })
	latecomer.OnIteration = func(done, _ int) {
		if done == 1 {
			closeAsked()
		}
	}
	secondDone.Add(1)
	go func() {
		defer secondDone.Done()
		defer closeAsked() // a solve that failed before its first step must not hang the first
		<-second
		results[1], errs[1] = u.Transient(alpha, w, times, latecomer)
	}()
	results[0], errs[0] = u.Transient(alpha, w, times, first)
	secondDone.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		sameResult(t, fmt.Sprintf("solve %d", g), results[g], want)
	}
	var strands []string
	for _, s := range reg.Tracer().Spans() {
		if s.Name == "ctmc.transient" {
			strands = append(strands, s.Attrs["strands"])
		}
	}
	slices.Sort(strands)
	if !slices.Equal(strands, []string{"1", "2"}) {
		t.Errorf("the concurrent solves ran on %v strands, want one on 1 and one on 2", strands)
	}
}

// TestTwoStrandSolveCancelled cancels a two-strand solve partway: it
// fails with the context's error, and once the pool closes no goroutine
// of the solve or the pool is left behind.
func TestTwoStrandSolveCancelled(t *testing.T) {
	defer ctmc.SetTwoStrandRows(1)()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	on, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	x, alpha := expandFull(t, mrm.KiBaMRM{Workload: on.Chain, Currents: on.Currents, Initial: on.Initial,
		Battery: kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}}, 100)
	u, err := ctmc.NewUniformized(x)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	pool := sparse.NewPoolObs(2, reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = u.Transient(alpha, nil, []float64{3000}, ctmc.TransientOptions{Pool: pool, Obs: reg, Context: ctx,
		OnIteration: func(done, _ int) {
			if done == 50 {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	if spans := reg.Tracer().Spans(); len(spans) != 1 || spans[0].Attrs["strands"] != "2" {
		t.Fatalf("the cancelled solve recorded spans %v, want one on 2 strands", spans)
	}
	pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pool closed, %d before the solve", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
