package ctmc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"batlife/internal/ctmc/ctmctest"
	"batlife/internal/obs"
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
// incremental regrow and replan (see checkWindowReplan) on random chain
// sizes, shift sets, supports and trims, on pools of 1 and 4 workers:
// every step's grown rows must equal a grow from nothing, computed row
// by row (grownRows), and its plan a fresh Pool.Plan of them.
// Every twenty-fourth chain has 25,000–30,000 rows, so the 4-worker
// plans fan out. Over the whole test the window must both keep and rebuild its
// plan often, its interval count must rise and fall, its grown rows
// must touch row 0 and row n, and some products must run in parallel.
func TestWindowReuseMatchesFreshGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reg := obs.NewRegistry()
	var tally replanTally
	for trial := 0; trial < 240; trial++ {
		n, steps := 1+rng.Intn(300), 60
		if trial%24 == 23 {
			n, steps = 25000+rng.Intn(5000), 20
		}
		checkWindowReplan(t, rng, reg, n, rng.Intn(12), 1+3*(trial%2), steps, &tally)
	}
	if tally.reused < 1000 || tally.rebuilt < 1000 {
		t.Errorf("%d steps reused their plan and %d rebuilt it; want both often", tally.reused, tally.rebuilt)
	}
	if tally.rose < 100 || tally.fell < 100 || tally.first < 100 || tally.last < 100 {
		t.Errorf("interval count rose on %d steps and fell on %d; grown rows touched row 0 on %d and row n on %d; want each on 100 or more",
			tally.rose, tally.fell, tally.first, tally.last)
	}
	if reg.Counter("sparse_pool_spmv_parallel_total").Value() == 0 {
		t.Error("no product ran in parallel; the large chains must fan out")
	}
}

// FuzzWindowReplan is the fuzzing form of TestWindowReuseMatchesFreshGrow:
// the inputs pick the chain size, the number of offsets drawn for the
// shift set and the pool's workers, and seed the shifts, the support and
// the trims.
func FuzzWindowReplan(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), false)
	f.Add(int64(2), uint16(1), uint8(0), true)
	f.Add(int64(3), uint16(300), uint8(11), true)
	f.Add(int64(4), uint16(25000), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shifts uint8, parallel bool) {
		workers := 1
		if parallel {
			workers = 4
		}
		rng := rand.New(rand.NewSource(seed))
		checkWindowReplan(t, rng, nil, 1+int(size)%30000, int(shifts)%16, workers, 20, nil)
	})
}

// replanTally counts what the steps of checkWindowReplan exercised.
type replanTally struct {
	reused, rebuilt int // steps that kept their plan, and that rebuilt it
	rose, fell      int // steps whose window had more, and fewer, intervals than the one before
	first, last     int // steps whose grown rows held row 0, and row n−1
}

// checkWindowReplan runs a window of an n-row chain over steps steps.
// Its shift set holds 0 and the offsets of shifts random transitions.
// Its operator has a few bands, all zero but a diagonal of ones, so a
// product copies x on the rows it computes. Each step runs the product
// on the rows prepare planned, writing a vector whose growth rows mostly
// fall below θ and whose other rows mostly do not, so trimming often
// leaves the window as it was and sometimes moves it. After every step:
// the grown rows, updated in place or kept, equal those that grownRows
// reads off the current window row by row; the plan, replanned in place
// or kept, equals a fresh Pool.Plan of those rows field by field (every
// segment's rows, bands and offsets, the chunks, the kept ranges and the
// weight); the
// product computed exactly the grown rows; the buffer it wrote, which
// held the iterate before, is zero off them after zeroStale (which
// skips its pass on a window that did not move) and off the trimmed
// window after trim. At the end the row tally must match the rows of
// the references. tally, when non-nil, counts what the steps exercised.
func checkWindowReplan(t *testing.T, rng *rand.Rand, reg *obs.Registry, n, shifts, workers, steps int, tally *replanTally) {
	t.Helper()
	set := addShift(make([]int, 0, 2*maxShiftRanges+2), 0)
	for k := shifts; k > 0; k-- {
		set = addShift(set, rng.Intn(2*n-1)-(n-1))
	}
	op := copyBands(t, rng, n)
	pool := sparse.NewPoolObs(workers, reg)
	defer pool.Close()
	alpha := make([]float64, n)
	alpha[rng.Intn(n)] = 1
	for i := range alpha {
		if rng.Intn(10) == 0 {
			alpha[i] = 1
		}
	}
	w := newWindow(pool, op, alpha, set, 1)
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
		pl, err := w.prepare()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(w.grown, want) {
			t.Fatalf("%d rows, shifts %v, step %d: grown %v, the rows %v grow to are %v", n, set, step, w.grown, w.cur, want)
		}
		var freshPlan sparse.Plan
		if err := pool.Plan(&freshPlan, op, want); err != nil {
			t.Fatal(err)
		}
		if d := diffPlans(pl, &freshPlan); d != "" {
			t.Fatalf("%d rows, %d workers, step %d: the kept plan and a fresh one of grown %v differ: %s", n, workers, step, w.grown, d)
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
		if err := pool.MulVecPlan(pl, next, vals, nil, 0); err != nil {
			t.Fatal(err)
		}
		w.zeroStale(next)
		grown := rowSet(n, w.grown)
		for i, x := range next {
			if want := vals[i]; (grown[i] && x != want) || (!grown[i] && x != 0) {
				t.Fatalf("%d rows, step %d: row %d (grown %v) holds %v after the product, want %v or 0", n, step, i, grown[i], x, want)
			}
		}
		w.trim(next)
		kept := rowSet(n, w.trimmed)
		for i, x := range next {
			if !kept[i] && x != 0 {
				t.Fatalf("%d rows, step %d: row %d holds %v off the trimmed window %v", n, step, i, x, w.trimmed)
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
	if w.rows != wantRows {
		t.Fatalf("%d rows: %d rows tallied, the references cover %d", n, w.rows, wantRows)
	}
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
