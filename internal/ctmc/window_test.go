package ctmc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// incremental regrow and replan and of its split between two strands
// (see checkWindowReplan) on random chain sizes, shift sets, supports
// and trims, splitting grown on every other trial: every step's grown
// rows must equal a grow from nothing, computed row by row (grownRows),
// each side's plan a fresh Pool.Plan of its rows, and the trim the
// one-pass trim of the parent design (trimReference). Every
// twenty-fourth chain has 25,000–30,000 rows. Over the whole test the
// window must both keep and rebuild its plans often, its interval count
// must rise and fall, its grown rows must touch row 0 and row n, the
// split row must fall inside an interval and between two, and the trim
// budget must run out, in the lent worker's rows too.
func TestWindowReuseMatchesFreshGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tally replanTally
	for trial := 0; trial < 240; trial++ {
		n, steps := 1+rng.Intn(300), 60
		if trial%24 == 23 {
			n, steps = 25000+rng.Intn(5000), 20
		}
		checkWindowReplan(t, rng, n, rng.Intn(12), trial%2 == 1, steps, &tally)
	}
	if tally.reused < 1000 || tally.rebuilt < 1000 {
		t.Errorf("%d steps reused their plan and %d rebuilt it; want both often", tally.reused, tally.rebuilt)
	}
	if tally.rose < 100 || tally.fell < 100 || tally.first < 100 || tally.last < 100 {
		t.Errorf("interval count rose on %d steps and fell on %d; grown rows touched row 0 on %d and row n on %d; want each on 100 or more",
			tally.rose, tally.fell, tally.first, tally.last)
	}
	if tally.inside < 100 || tally.between < 100 || tally.spent < 10 || tally.spentHelper < 5 {
		t.Errorf("the split row fell inside an interval on %d steps and between two on %d; the budget ran out on %d trials, %d times in the lent worker's rows; want 100, 100, 10 and 5 or more",
			tally.inside, tally.between, tally.spent, tally.spentHelper)
	}
}

// FuzzWindowReplan is the fuzzing form of TestWindowReuseMatchesFreshGrow:
// the inputs pick the chain size, the number of offsets drawn for the
// shift set and whether grown is split between two strands, and seed
// the shifts, the support and the trims.
func FuzzWindowReplan(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), false)
	f.Add(int64(2), uint16(1), uint8(0), true)
	f.Add(int64(3), uint16(300), uint8(11), true)
	f.Add(int64(4), uint16(25000), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shifts uint8, two bool) {
		rng := rand.New(rand.NewSource(seed))
		checkWindowReplan(t, rng, 1+int(size)%30000, int(shifts)%16, two, 20, nil)
	})
}

// replanTally counts what the steps of checkWindowReplan exercised.
type replanTally struct {
	reused, rebuilt int // steps that kept their plan, and that rebuilt it
	rose, fell      int // steps whose window had more, and fewer, intervals than the one before
	first, last     int // steps whose grown rows held row 0, and row n−1
	inside, between int // two-strand steps whose split row lay inside an interval of grown, and outside
	spent           int // trials whose trim budget ran out
	spentHelper     int // steps whose trim budget ran out in the lent worker's rows
}

// checkWindowReplan runs a window of an n-row chain over steps steps.
// Its shift set holds 0 and the offsets of shifts random transitions.
// Its operator has a few bands, all zero but a diagonal of ones, so a
// product copies x on the rows it computes. With two, most steps split
// grown between two sides as a two-strand solve does, and the rest run
// on one. Each step runs each side's product on the rows its plan
// covers, writing a vector whose growth rows mostly fall below θ and
// whose other rows mostly do not, so trimming often leaves the window
// as it was and sometimes moves it. On half the trials the trim budget
// is small enough to run out. After every step: the grown rows,
// updated in place or kept, equal those that grownRows reads off the
// current window row by row; the sides own rows [0, mid) and [mid, n)
// and their ranges join to grown; each side's plan, replanned in place
// or kept, equals a fresh Pool.Plan of its ranges field by field (every
// segment's rows, bands and offsets, the kept ranges and the weight);
// the products computed exactly the grown rows; the buffer they wrote,
// which held the iterate before, is zero off them after zeroStale
// (which skips its pass on a window that did not move); and the trim
// of the runs the sides found leaves the window, the vector and the
// tally bit for bit as trimReference does. At the end the row tally
// must match the rows of the references. tally, when non-nil, counts
// what the steps exercised.
func checkWindowReplan(t *testing.T, rng *rand.Rand, n, shifts int, two bool, steps int, tally *replanTally) {
	t.Helper()
	set := addShift(make([]int, 0, 2*maxShiftRanges+2), 0)
	for k := shifts; k > 0; k-- {
		set = addShift(set, rng.Intn(2*n-1)-(n-1))
	}
	op := copyBands(t, rng, n)
	pool := sparse.NewPool(1)
	defer pool.Close()
	alpha := make([]float64, n)
	alpha[rng.Intn(n)] = 1
	for i := range alpha {
		if rng.Intn(10) == 0 {
			alpha[i] = 1
		}
	}
	w := newWindow(pool, op, alpha, set, 1)
	if rng.Intn(2) == 0 {
		w.budget = 1e-12 * float64(5+rng.Intn(200))
	}
	v, next, vals := slices.Clone(alpha), make([]float64, n), make([]float64, n)
	wantRows := 0
	if tally == nil {
		tally = new(replanTally)
	}
	for step := 0; step < steps; step++ {
		want := grownRows(n, w.cur, set)
		if w.planned {
			tally.reused++
		} else {
			tally.rebuilt++
		}
		w.prepare()
		w.split(two && rng.Intn(8) != 0)
		if !slices.Equal(w.grown, want) {
			t.Fatalf("%d rows, shifts %v, step %d: grown %v, the rows %v grow to are %v", n, set, step, w.grown, w.cur, want)
		}
		s0, s1 := &w.sides[0], &w.sides[1]
		if s0.lo != 0 || s0.hi != w.mid || s1.lo != w.mid || int(s1.hi) != n {
			t.Fatalf("%d rows, step %d: sides own [%d,%d) and [%d,%d), split at %d", n, step, s0.lo, s0.hi, s1.lo, s1.hi, w.mid)
		}
		if got := joinSides(s0.ranges, s1.ranges); !slices.Equal(got, want) {
			t.Fatalf("%d rows, step %d: sides %v and %v split at %d join to %v, grown is %v", n, step, s0.ranges, s1.ranges, w.mid, got, want)
		}
		if int(w.mid) < n {
			if rowSet(n+1, want)[w.mid] && w.mid > 0 && rowSet(n+1, want)[w.mid-1] {
				tally.inside++
			} else {
				tally.between++
			}
		}
		for k := range w.sides {
			sd := &w.sides[k]
			if sd.lo == sd.hi {
				continue // a side that owns no rows runs no product
			}
			if sd.replan {
				if err := pool.Plan(&sd.plan, op, sd.ranges); err != nil {
					t.Fatal(err)
				}
				sd.replan = false
			}
			var freshPlan sparse.Plan
			if err := pool.Plan(&freshPlan, op, sd.ranges); err != nil {
				t.Fatal(err)
			}
			if d := diffPlans(&sd.plan, &freshPlan); d != "" {
				t.Fatalf("%d rows, step %d: side %d's kept plan and a fresh one of its rows %v differ: %s", n, step, k, sd.ranges, d)
			}
		}
		if g := w.grown; len(g) > 0 {
			if g[0] == 0 {
				tally.first++
			}
			if int(g[len(g)-1]) == n {
				tally.last++
			}
		}
		for i := 0; i < len(want); i += 2 {
			wantRows += int(want[i+1] - want[i])
		}
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
		for k := range w.sides {
			sd := &w.sides[k]
			if sd.lo == sd.hi {
				continue
			}
			if err := pool.MulVecPlan(&sd.plan, next, vals, nil, 0); err != nil {
				t.Fatal(err)
			}
			w.zeroStale(next, sd.lo, sd.hi)
		}
		grown := rowSet(n, w.grown)
		for i, x := range next {
			if want := vals[i]; (grown[i] && x != want) || (!grown[i] && x != 0) {
				t.Fatalf("%d rows, step %d: row %d (grown %v) holds %v after the product, want %v or 0", n, step, i, grown[i], x, want)
			}
		}
		ref := slices.Clone(next)
		refRows, refDropped, refOn := trimReference(ref, w.grown, w.theta, w.budget, w.dropped, w.trimming)
		w.trimOwn(next)
		helper := w.sides[1].lo < w.sides[1].hi
		if helper {
			w.cutRuns(next, &w.sides[1])
		}
		on := w.pass.on
		w.trimRest(next)
		if helper && on && !w.trimming {
			tally.spentHelper++
		}
		if !slices.Equal(w.trimmed, refRows) || math.Float64bits(w.dropped) != math.Float64bits(refDropped) || w.trimming != refOn {
			t.Fatalf("%d rows, step %d, split at %d: trimmed %v, dropped %v, trimming %v; the one-pass trim gives %v, %v, %v",
				n, step, w.mid, w.trimmed, w.dropped, w.trimming, refRows, refDropped, refOn)
		}
		for i := range next {
			if math.Float64bits(next[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%d rows, step %d: row %d holds %v after the trim, the one-pass trim leaves %v", n, step, i, next[i], ref[i])
			}
		}
		switch {
		case len(w.trimmed) > len(w.cur):
			tally.rose++
		case len(w.trimmed) < len(w.cur):
			tally.fell++
		}
		v, next = next, v
		w.advance()
	}
	if !w.trimming {
		tally.spent++
	}
	if w.rows != wantRows {
		t.Fatalf("%d rows: %d rows tallied, the references cover %d", n, w.rows, wantRows)
	}
}

// joinSides returns the window list of the rows of a and b, b's above
// a's, joining the interval that each holds a part of.
func joinSides(a, b []int32) []int32 {
	out := slices.Clone(a)
	if len(out) > 0 && len(b) > 0 && out[len(out)-1] == b[0] {
		out[len(out)-1] = b[1]
		b = b[2:]
	}
	return append(out, b...)
}

// trimReference is the trim of the parent design, in one pass over grown
// that finds and tallies together: it cuts both ends of every interval
// while their entries are not at least θ, interval by interval, the low
// end up and then the high end down, zeroing each dropped entry of v and
// adding it to dropped, and stops trimming for good once an entry would
// take dropped past budget. It returns the rows left, the tally and
// whether trimming goes on.
func trimReference(v []float64, grown []int32, theta, budget, dropped float64, trimming bool) ([]int32, float64, bool) {
	drop := func(i int32) bool {
		a := math.Abs(v[i])
		if !trimming || a >= theta {
			return false
		}
		if dropped+a > budget {
			trimming = false
			return false
		}
		dropped += a
		v[i] = 0
		return true
	}
	var out []int32
	for i := 0; i < len(grown); i += 2 {
		lo, hi := grown[i], grown[i+1]
		for lo < hi && drop(lo) {
			lo++
		}
		for hi > lo && drop(hi-1) {
			hi--
		}
		if lo < hi {
			out = append(out, lo, hi)
		}
	}
	return out, dropped, trimming
}

// copyBands returns an n-row banded matrix whose product copies x: a
// diagonal of ones and one to three bands of zeros at random offsets,
// so the plans cut edge rows, where some bands leave the matrix, and
// on long chains periodic bands.
func copyBands(t *testing.T, rng *rand.Rand, n int) *sparse.Banded {
	t.Helper()
	offs := []int{0}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		if o := rng.Intn(2*n-1) - (n - 1); !slices.Contains(offs, o) {
			offs = append(offs, o)
		}
	}
	slices.Sort(offs)
	vals := make([][]float64, len(offs))
	for k, o := range offs {
		vals[k] = make([]float64, n)
		if o == 0 {
			for i := range vals[k] {
				vals[k][i] = 1
			}
		}
	}
	b, err := sparse.NewBanded(n, offs, vals)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diffPlans names the first field in which two plans differ, with both
// values, or returns "" when they agree field by field. It reads the
// unexported fields through reflect: slices compare by length and
// elements, not capacity, and the operator by identity.
func diffPlans(a, b *sparse.Plan) string {
	if d := diffValues(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()); d != "" {
		return "Plan" + d
	}
	return ""
}

// diffValues is diffPlans on one value: "" when a and b agree, else the
// path from them to the first difference and both values there.
func diffValues(a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValues(a.Field(i), b.Field(i)); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": %d elements, fresh %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValues(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Interface:
		if a.IsNil() != b.IsNil() || (!a.IsNil() && a.Elem().Pointer() != b.Elem().Pointer()) {
			return ": different operators"
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d, fresh %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf(": %d, fresh %d", a.Uint(), b.Uint())
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf(": %v, fresh %v", a.Float(), b.Float())
		}
	default:
		return fmt.Sprintf(": cannot compare a %s", a.Kind())
	}
	return ""
}

// grownRows is the reference that the window's grown rows are held
// against, built row by row and sharing no code with regrow: row r of
// an n-row chain is grown when x + a ≤ r ≤ x + b for some row x of cur
// and some range [a, b] of shifts. Each such span of rows, clipped to
// the chain, is marked in a difference array, and the list is read off
// its running sum.
func grownRows(n int, cur []int32, shifts []int) []int32 {
	diff := make([]int, n+1)
	for x, in := range rowSet(n, cur) {
		if !in {
			continue
		}
		for s := 0; s < len(shifts); s += 2 {
			if lo, hi := max(x+shifts[s], 0), min(x+shifts[s+1]+1, n); lo < hi {
				diff[lo]++
				diff[hi]--
			}
		}
	}
	var list []int32
	depth := 0
	for r := 0; r <= n; r++ {
		was := depth > 0
		depth += diff[r]
		switch now := depth > 0 && r < n; {
		case now && !was:
			list = append(list, int32(r), 0)
		case !now && was:
			list[len(list)-1] = int32(r)
		}
	}
	return list
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
