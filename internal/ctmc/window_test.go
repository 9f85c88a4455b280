package ctmc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"batlife/internal/ctmc/ctmctest"
	"batlife/internal/sparse"
)

// checkWindowAgainstReference solves with the windowed engine and with
// the full-sweep reference loop, and asserts the window's contract: the
// dropped mass stays within ε, an answer that dropped nothing equals the
// full sweep bit for bit, and otherwise every value lies at most
// DroppedMass (+1e-15 rounding) below the reference.
func checkWindowAgainstReference(t *testing.T, gen *sparse.CSR, alpha, w, times []float64, opts TransientOptions) *Result {
	t.Helper()
	u, err := NewUniformized(gen)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Transient(alpha, w, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ctmctest.Reference(gen, alpha, w, times, opts.epsilon(), !opts.DisableSteadyStateDetection)
	if err != nil {
		t.Fatal(err)
	}
	if got.DroppedMass < 0 || got.DroppedMass > opts.epsilon() {
		t.Fatalf("DroppedMass = %v, want within [0, ε=%v]", got.DroppedMass, opts.epsilon())
	}
	if got.WindowRows <= 0 || got.WindowRows > got.SpMVs*gen.Rows() {
		t.Errorf("WindowRows = %d for %d products of %d rows", got.WindowRows, got.SpMVs, gen.Rows())
	}
	compare := func(what string, g, r float64) {
		t.Helper()
		if got.DroppedMass == 0 {
			if math.Float64bits(g) != math.Float64bits(r) {
				t.Errorf("%s = %v, full sweep %v (nothing dropped: want bit-identical)", what, g, r)
			}
			return
		}
		if d := r - g; d < -1e-15 || d > got.DroppedMass+1e-15 {
			t.Errorf("%s = %v, full sweep %v: gap %v outside [0, DroppedMass=%v]", what, g, r, d, got.DroppedMass)
		}
	}
	if got.DroppedMass == 0 && got.Iterations != ref.Iterations {
		t.Errorf("Iterations = %d, full sweep %d", got.Iterations, ref.Iterations)
	}
	for k := range times {
		if w != nil {
			compare("value", got.Values[k], ref.Values[k])
			continue
		}
		for i := range got.Distributions[k] {
			compare("π_i", got.Distributions[k][i], ref.Distributions[k][i])
		}
	}
	return got
}

// birthChain is 0 → 1 → … → n (absorbing) at one rate: from a point
// mass, the iterate is a travelling Poisson-like bump, so the window
// trims a growing tail behind it and a negligible front ahead of it.
func birthChain(t *testing.T, n int, rate float64) *Chain {
	t.Helper()
	var b Builder
	for i := 0; i < n; i++ {
		b.Transition(stateName(i%26)+stateName(i/26), stateName((i+1)%26)+stateName((i+1)/26), rate)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWindowNothingDroppedMatchesFullSweep: on solves where every entry
// stays above θ (a short-lived cycle, an ergodic ring), the windowed
// loop only ever trims
// exact zeros, and its answers must equal the full sweep bit for bit —
// distributions, fused single-point distributions and functionals, with
// and without steady-state detection.
func TestWindowNothingDroppedMatchesFullSweep(t *testing.T) {
	cycle := absorbingCycle(t)
	var rb Builder
	for i := 0; i < 6; i++ {
		rb.Transition(stateName(i), stateName((i+1)%6), 1)
		rb.Transition(stateName(i), stateName((i+5)%6), 0.5)
	}
	ring, err := rb.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		c     *Chain
		times []float64
	}{
		{"cycle", cycle, []float64{0, 0.5, 2.5, 4}},
		{"cycle single point", cycle, []float64{2.5}},
		{"ring", ring, []float64{0.25, 3, 40}},
		{"ring single point", ring, []float64{40}},
	}
	for _, tc := range cases {
		alpha := tc.c.PointDistribution(0)
		w := make([]float64, tc.c.NumStates())
		w[tc.c.NumStates()-1], w[1] = 1, 0.5
		for _, opts := range []TransientOptions{{}, {DisableSteadyStateDetection: true}} {
			for _, fn := range [][]float64{nil, w} {
				res := checkWindowAgainstReference(t, tc.c.Generator(), alpha, fn, tc.times, opts)
				if res.DroppedMass != 0 {
					t.Fatalf("%s: dropped %v; the case must keep every entry above θ", tc.name, res.DroppedMass)
				}
			}
		}
	}
}

// TestWindowTrimsWithinBound: a long birth chain solved far along its
// bump trims entries on both sides; the answers must stay within the
// reported DroppedMass of the full sweep, and the window must compute
// far fewer rows than a full sweep would.
func TestWindowTrimsWithinBound(t *testing.T) {
	c := birthChain(t, 300, 2)
	alpha := c.PointDistribution(0)
	w := make([]float64, c.NumStates())
	for i := 200; i < len(w); i++ {
		w[i] = 1
	}
	times := []float64{20, 60, 120}
	opts := TransientOptions{DisableSteadyStateDetection: true}
	res := checkWindowAgainstReference(t, c.Generator(), alpha, w, times, opts)
	if res.DroppedMass == 0 {
		t.Fatal("nothing dropped; the case must exercise trimming")
	}
	if frac := float64(res.WindowRows) / float64(res.SpMVs*c.NumStates()); frac > 0.5 {
		t.Errorf("window computed %.2f of the full sweep's rows, want < 0.5", frac)
	}
	checkWindowAgainstReference(t, c.Generator(), alpha, nil, times, opts)
}

// TestWindowManyOffsets: a random generator has many distinct index
// offsets; they must be merged into at most maxShiftRanges ranges that
// still cover every transition, and the solve must stay within the
// dropped-mass bound of the full sweep.
func TestWindowManyOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 150
	var b Builder
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			if j := rng.Intn(n); j != i {
				b.Transition(stateName(i%26)+stateName(i/26), stateName(j%26)+stateName(j/26), 0.1+rng.Float64())
			}
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(u.shifts) / 2; got < 1 || got > maxShiftRanges {
		t.Fatalf("%d offset ranges, want 1..%d", got, maxShiftRanges)
	}
	for i := 0; i+1 < len(u.shifts); i += 2 {
		if u.shifts[i] > u.shifts[i+1] || (i > 0 && u.shifts[i] <= u.shifts[i-1]+1) {
			t.Fatalf("offset ranges %v are not ascending, disjoint and non-touching", u.shifts)
		}
	}
	distinct := map[int]bool{}
	for r := 0; r < n; r++ {
		u.pt.(*sparse.CSR).Row(r, func(col int, _ float64) {
			d := r - col
			distinct[d] = true
			for i := 0; i < len(u.shifts); i += 2 {
				if u.shifts[i] <= d && d <= u.shifts[i+1] {
					return
				}
			}
			t.Errorf("offset %d of entry (%d,%d) not covered by %v", d, r, col, u.shifts)
		})
	}
	if len(distinct) <= maxShiftRanges {
		t.Fatalf("only %d distinct offsets; the case must exceed the cap", len(distinct))
	}
	alpha := c.PointDistribution(0)
	for _, opts := range []TransientOptions{{}, {DisableSteadyStateDetection: true}} {
		checkWindowAgainstReference(t, c.Generator(), alpha, nil, []float64{0.5, 3, 10}, opts)
	}
}

// TestWindowSingleTimePointFused: a single-point distribution solve
// folds each iterate inside the windowed product. With trimming active
// it must stay within the bound of the full sweep and match the unfused
// path (the same point twice) bit for bit, dropped mass included.
func TestWindowSingleTimePointFused(t *testing.T) {
	c := birthChain(t, 300, 2)
	alpha := c.PointDistribution(0)
	gen := c.Generator()
	for _, opts := range []TransientOptions{{}, {DisableSteadyStateDetection: true}} {
		fused := checkWindowAgainstReference(t, gen, alpha, nil, []float64{90}, opts)
		if fused.DroppedMass == 0 {
			t.Fatal("nothing dropped; the case must exercise trimming")
		}
		unfused, err := transientDistributions(gen, alpha, []float64{90, 90}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fused.DroppedMass != unfused.DroppedMass || fused.WindowRows != unfused.WindowRows {
			t.Errorf("fused dropped/rows %v/%d, unfused %v/%d",
				fused.DroppedMass, fused.WindowRows, unfused.DroppedMass, unfused.WindowRows)
		}
		for i, p := range fused.Distributions[0] {
			if math.Float64bits(p) != math.Float64bits(unfused.Distributions[0][i]) {
				t.Fatalf("state %d: fused %v, unfused %v (bit-identical)", i, p, unfused.Distributions[0][i])
			}
		}
	}
}

// TestWindowSteadyStateInTrimmedWindow: queried far past absorption, a
// birth chain trims the mass it leaves behind, and steady-state
// detection must still fire on the trimmed window and agree with the
// full, undetected sweep within the dropped mass plus the detection
// tolerance.
func TestWindowSteadyStateInTrimmedWindow(t *testing.T) {
	c := birthChain(t, 40, 2)
	alpha := c.PointDistribution(0)
	w := make([]float64, c.NumStates())
	w[len(w)-1] = 1
	times := []float64{30, 400}
	res, err := transientFunctional(c.Generator(), alpha, w, times, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedMass == 0 {
		t.Fatal("nothing dropped before convergence; the case must trim")
	}
	if res.Iterations >= res.FoxGlynnRight {
		t.Fatalf("%d iterations of window %d: steady-state detection did not fire", res.Iterations, res.FoxGlynnRight)
	}
	ref, err := ctmctest.Reference(c.Generator(), alpha, w, times, 1e-12, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if d := math.Abs(ref.Values[k] - res.Values[k]); d > res.DroppedMass+1e-9 {
			t.Errorf("t=%v: %v vs full sweep %v (gap %v)", times[k], res.Values[k], ref.Values[k], d)
		}
	}
}

// TestTransientAllocsIndependentOfHorizon: one whole solve allocates the
// same number of times at 1× and 2× the horizon, so nothing on the
// per-step path — products, window growth, trimming, folds — allocates.
// The tolerance of half an allocation per solve absorbs a scratch vector
// the garbage collector may evict from the pool mid-measurement; a
// per-step allocation would add hundreds.
func TestTransientAllocsIndependentOfHorizon(t *testing.T) {
	c := birthChain(t, 300, 2)
	u, err := NewUniformized(c.Generator())
	if err != nil {
		t.Fatal(err)
	}
	alpha := c.PointDistribution(0)
	w := make([]float64, c.NumStates())
	w[len(w)-1] = 1
	pool := sparse.NewPool(2)
	defer pool.Close()
	opts := TransientOptions{Pool: pool, DisableSteadyStateDetection: true}
	allocs := func(horizon float64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := u.Transient(alpha, w, []float64{horizon / 2, horizon}, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := allocs(60), allocs(120)
	if math.Abs(two-one) >= 0.5 {
		t.Errorf("a solve allocates %v times at 1× the horizon and %v at 2×", one, two)
	}
}

// TestWindowReuseMatchesFreshGrow is the property test of the window's
// plan reuse. On random chain sizes, shift sets and supports, each step
// runs a product on the rows prepare planned, writing a vector whose
// growth rows mostly fall below θ and whose other rows mostly do not,
// so trimming often leaves the window as it was and sometimes moves it.
// The grown rows of every step, rebuilt or reused, must equal a fresh
// grow of the current window, the plan must compute exactly those rows,
// the buffer it wrote, which held the iterate before, must be zero off
// them after zeroStale (which skips its pass on a window that did not
// move) and off the trimmed window after trim, and the row tally must
// match the fresh grows.
func TestWindowReuseMatchesFreshGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := sparse.NewPool(1)
	defer pool.Close()
	reused, rebuilt := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		shifts := addShift(make([]int, 0, 2*maxShiftRanges+2), 0)
		for k := rng.Intn(12); k > 0; k-- {
			shifts = addShift(shifts, rng.Intn(2*n-1)-(n-1))
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		id, err := sparse.NewBanded(n, []int{0}, [][]float64{ones})
		if err != nil {
			t.Fatal(err)
		}
		alpha := make([]float64, n)
		alpha[rng.Intn(n)] = 1
		for i := range alpha {
			if rng.Intn(10) == 0 {
				alpha[i] = 1
			}
		}
		w := newWindow(pool, id, alpha, shifts, 1)
		v, next, vals := slices.Clone(alpha), make([]float64, n), make([]float64, n)
		wantRows := 0
		for step := 0; step < 60; step++ {
			fresh := window{cur: slices.Clone(w.cur), shifts: shifts, n: n}
			fresh.grow()
			if w.planned {
				reused++
			} else {
				rebuilt++
			}
			pl, err := w.prepare()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(w.grown, fresh.grown) {
				t.Fatalf("trial %d step %d: grown %v, a fresh grow of %v gives %v", trial, step, w.grown, w.cur, fresh.grown)
			}
			wantRows += fresh.grownRows
			in := rowSet(n, w.cur)
			for i := range vals {
				small := !in[i]
				if rng.Intn(50) == 0 {
					small = !small
				}
				vals[i] = 1 + rng.Float64()
				if small {
					vals[i] = 1e-12 * rng.Float64()
				}
			}
			if err := pool.MulVecPlan(pl, next, vals, nil, 0); err != nil {
				t.Fatal(err)
			}
			w.zeroStale(next)
			grown := rowSet(n, w.grown)
			for i, x := range next {
				if want := vals[i]; (grown[i] && x != want) || (!grown[i] && x != 0) {
					t.Fatalf("trial %d step %d: row %d (grown %v) holds %v after the product, want %v or 0", trial, step, i, grown[i], x, want)
				}
			}
			w.trim(next)
			kept := rowSet(n, w.trimmed)
			for i, x := range next {
				if !kept[i] && x != 0 {
					t.Fatalf("trial %d step %d: row %d holds %v off the trimmed window %v", trial, step, i, x, w.trimmed)
				}
			}
			v, next = next, v
			w.advance()
		}
		if w.rows != wantRows {
			t.Fatalf("trial %d: %d rows tallied, fresh grows cover %d", trial, w.rows, wantRows)
		}
	}
	if reused < 1000 || rebuilt < 1000 {
		t.Errorf("%d steps reused their plan and %d rebuilt it; want both often", reused, rebuilt)
	}
}

// rowSet marks the rows of a window list of n rows.
func rowSet(n int, list []int32) []bool {
	in := make([]bool, n)
	for i := 0; i < len(list); i += 2 {
		for r := list[i]; r < list[i+1]; r++ {
			in[r] = true
		}
	}
	return in
}
