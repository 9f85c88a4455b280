package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"batlife/internal/check"
	"batlife/internal/foxglynn"
	"batlife/internal/obs"
	"batlife/internal/sparse"
)

// ErrBadInput reports invalid arguments to the transient engine.
var ErrBadInput = errors.New("ctmc: bad transient input")

// ErrIterationBudget reports that a transient solve would exceed the
// caller-imposed MaxIterations bound.
var ErrIterationBudget = errors.New("ctmc: iteration budget exceeded")

// TransientOptions tunes the uniformisation engine.
type TransientOptions struct {
	// Epsilon bounds the truncated Poisson tail mass per time point,
	// and separately the mass the windowed loop may drop
	// (Result.DroppedMass ≤ Epsilon). Each answer under-approximates the
	// exact uniformisation value: a probability is at most Epsilon +
	// DroppedMass below it (a functional w·π(t) at most that times
	// max|w|). Zero selects 1e-12.
	Epsilon float64
	// Pool, when non-nil, supplies the SpMV worker pool; nil selects the
	// process-wide sparse.DefaultPool. Sharing one Pool across concurrent
	// solves (e.g. a scenario sweep) keeps the total parallelism bounded
	// instead of multiplying per solve.
	Pool *sparse.Pool
	// MaxIterations caps the number of uniformisation steps. When the
	// Fox–Glynn window of the largest time point needs more, the solve
	// fails with ErrIterationBudget before iterating. Zero is unlimited.
	MaxIterations int
	// Context, when non-nil, cancels the iteration loop between steps;
	// the returned error wraps Context.Err().
	Context context.Context
	// DisableSteadyStateDetection turns off the early-termination check:
	// when the iteration vector v_n stops changing (the uniformised DTMC
	// has converged — e.g. all probability mass has been absorbed), the
	// remaining Poisson weight is folded in analytically and the
	// iteration stops. Detection is sound up to the transient epsilon;
	// disable it to force the full Fox–Glynn window.
	DisableSteadyStateDetection bool
	// OnIteration, when non-nil, is invoked after every uniformisation
	// step with the current and total iteration count. It is called on
	// the calling goroutine.
	OnIteration func(done, total int)
	// Obs, when non-nil, receives solve telemetry: iteration and SpMV
	// totals, Fox–Glynn window sizes, and a "ctmc.transient" span per
	// solve. Nil disables all recording at no cost.
	Obs *obs.Registry
}

func (o TransientOptions) epsilon() float64 {
	if o.Epsilon <= 0 {
		return 1e-12
	}
	return o.Epsilon
}

// Result is the output of a transient solve.
type Result struct {
	// Times echoes the requested time points.
	Times []float64
	// Distributions[k] is π(Times[k]); nil for functional solves.
	Distributions [][]float64
	// Values[k] is the requested functional of π(Times[k]); nil for
	// distribution solves.
	Values []float64
	// Iterations is the number of vector-matrix products performed.
	Iterations int
	// Rate is the uniformisation constant q.
	Rate float64
	// FoxGlynnLeft and FoxGlynnRight delimit the union of the Poisson
	// truncation windows over all requested time points — the iteration
	// budget the solve committed to (steady-state detection may stop
	// earlier). Both are 0 when the chain has no transitions.
	FoxGlynnLeft, FoxGlynnRight int
	// SpMVs counts the sparse matrix-vector products performed; it
	// equals Iterations for a full solve and is kept separate so
	// higher layers can aggregate operator work without re-deriving it.
	SpMVs int
	// WindowRows counts the rows the products computed: each product
	// runs on the active window only, so WindowRows / (SpMVs · states)
	// is the fraction of the chain the solve actually swept.
	WindowRows int
	// DroppedMass is the probability mass the window trimmed from the
	// iterates (entries below 1e-8·Epsilon), at most Epsilon by
	// construction. Every value is at most Epsilon + DroppedMass below
	// the exact uniformisation value.
	DroppedMass float64
}

// Uniformized is a reusable uniformisation operator for one generator:
// the uniformisation constant q, the transposed probabilistic matrix
// Pᵀ = (I + Q/q)ᵀ, and a cache of the most recent Fox–Glynn weight
// tables keyed on (q·t, ε). Building Pᵀ costs a full transpose-and-scale
// pass over the generator, so callers issuing many transient queries
// against the same chain should construct the operator once and call
// Transient repeatedly. A Uniformized is immutable apart from the
// internally synchronised weight cache and is safe for concurrent use.
type Uniformized struct {
	n int // the chain's state count
	q float64
	// pt is Pᵀ: a *sparse.Banded when it has at most sparse.MaxBands
	// distinct index offsets (every expanded battery chain), a
	// *sparse.CSR otherwise; nil when q == 0 (no transitions anywhere).
	pt       sparse.Operator
	bands    int   // pt's band count, 0 for a CSR
	periodic int   // how many of pt's bands are stored as a period
	shifts   []int // Pᵀ's index offset ranges (see shiftRanges)

	mu      sync.RWMutex
	weights map[weightKey]*foxglynn.Weights
	// order is the ring of cached keys in insertion order; once the
	// cache is full, order[next] is the oldest.
	order [maxWeightTables]weightKey
	next  int
}

// maxWeightTables caps the Fox–Glynn tables one operator keeps; past it
// the oldest is dropped. A table holds one weight per Poisson term
// (about 25k on Fig. 8 at t = 20,000 s), so an unbounded cache on a
// long-lived model grows with every new time point a client asks for.
// One request's grid rarely needs more than a dozen tables.
const maxWeightTables = 64

// weightKey identifies one Fox–Glynn table by the exact bit patterns of
// its Poisson rate q·t and truncation epsilon.
type weightKey struct {
	qt, eps uint64
}

// slack multiplies the maximal exit rate to obtain the uniformisation
// constant q. It guarantees strictly positive self-loop probabilities,
// which improves the convergence behaviour of periodic chains.
const slack = 1.02

// Generator is a square generator matrix that can be read row by row:
// a *sparse.CSR, or a chain that computes its rows, such as an expanded
// battery chain. Row visits the nonzeros of row r in ascending column
// order.
type Generator interface {
	Rows() int
	Row(r int, fn func(col int, v float64))
}

// NewUniformized builds the reusable operator for the generator; the
// solve options are per call and passed to Transient. The operator
// reads gen only while it is built and keeps no reference to it.
func NewUniformized(gen Generator) (*Uniformized, error) {
	check.GeneratorRows("ctmc.NewUniformized generator", gen)
	scan, err := scanRows(gen)
	if err != nil {
		return nil, err
	}
	q := scan.maxDiag * slack
	u := &Uniformized{
		n:       scan.n,
		q:       q,
		weights: make(map[weightKey]*foxglynn.Weights),
	}
	if q > 0 {
		if scan.fits {
			bands, err := uniformizedBands(gen, q, scan.offs)
			if err != nil {
				return nil, err
			}
			u.pt, u.bands, u.periodic = bands, bands.Bands(), bands.PeriodicBands()
			u.shifts = bandShifts(bands.Offsets())
			return u, nil
		}
		pt, err := uniformizedTransposed(gen, q)
		if err != nil {
			return nil, err
		}
		u.pt, u.shifts = pt, shiftRanges(pt)
	}
	return u, nil
}

// Rate reports the uniformisation constant q.
func (u *Uniformized) Rate() float64 { return u.q }

// NumStates reports the dimension of the underlying chain.
func (u *Uniformized) NumStates() int { return u.n }

// weightsFor returns the Fox–Glynn table for time t and truncation eps,
// computing and caching it on first use. Past maxWeightTables the
// oldest table is dropped; a recomputed table is identical.
func (u *Uniformized) weightsFor(t, eps float64) (*foxglynn.Weights, error) {
	key := weightKey{qt: math.Float64bits(u.q * t), eps: math.Float64bits(eps)}
	u.mu.RLock()
	fw, ok := u.weights[key]
	u.mu.RUnlock()
	if ok {
		return fw, nil
	}
	fw, err := foxglynn.Compute(u.q*t, eps)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if cached, ok := u.weights[key]; ok {
		return cached, nil // a concurrent solve computed it first
	}
	if len(u.weights) == maxWeightTables {
		delete(u.weights, u.order[u.next])
	}
	u.weights[key] = fw
	u.order[u.next] = key
	u.next = (u.next + 1) % maxWeightTables
	return fw, nil
}

// windows returns the Fox–Glynn table of every time point together with
// the union [left, right] of their truncation windows.
func (u *Uniformized) windows(times []float64, eps float64) ([]*foxglynn.Weights, int, int, error) {
	weights := make([]*foxglynn.Weights, len(times))
	left, right := math.MaxInt, 0
	for k, t := range times {
		fw, err := u.weightsFor(t, eps)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("ctmc: poisson weights for t=%v: %w", t, err)
		}
		weights[k] = fw
		left = min(left, fw.Left)
		right = max(right, fw.Right)
	}
	return weights, left, right, nil
}

// Window reports the FoxGlynnLeft and FoxGlynnRight a Transient call
// over times would commit to under opts (only Epsilon is consulted):
// the union of the per-point Poisson truncation windows, or 0, 0 when
// the chain has no transitions. The tables are cached on the operator,
// so Window and a Transient over the same points compute each only once.
func (u *Uniformized) Window(times []float64, opts TransientOptions) (left, right int, err error) {
	if u.q == 0 {
		return 0, 0, nil
	}
	_, left, right, err = u.windows(times, opts.epsilon())
	return left, right, err
}

// TransientFunctional computes w·π(t) — the probability-weighted sum of
// the functional w over states — at each time point. It shares one
// v_n = α·Pⁿ sequence across all time points, so the cost is that of
// solving only the largest one.
func TransientFunctional(gen Generator, alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil functional", ErrBadInput)
	}
	u, err := NewUniformized(gen)
	if err != nil {
		return nil, err
	}
	return u.Transient(alpha, w, times, opts)
}

// Transient runs one uniformisation solve on the prebuilt operator: the
// full distribution π(t) at each time point when w is nil, or the
// functional w·π(t) otherwise. The operator's cached Pᵀ and Fox–Glynn
// tables are reused across calls; every option is per call.
func (u *Uniformized) Transient(alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	reg := opts.Obs
	if reg == nil {
		return u.transient(alpha, w, times, opts)
	}
	_, span := obs.StartSpan(opts.Context, reg, "ctmc.transient",
		obs.Int("states", int64(u.n)),
		obs.Int("time_points", int64(len(times))),
		obs.Int("bands", int64(u.bands)),
		obs.Int("periodic_bands", int64(u.periodic)),
		obs.String("kernel", u.pt.Kernel()))
	res, err := u.transient(alpha, w, times, opts)
	if err != nil {
		reg.Counter("ctmc_solve_errors_total").Inc()
		span.End(obs.String("error", err.Error()))
		return nil, err
	}
	reg.Counter("ctmc_solves_total").Inc()
	reg.Counter("ctmc_uniformization_iterations_total").Add(int64(res.Iterations))
	reg.Counter("ctmc_spmv_total").Add(int64(res.SpMVs))
	reg.Counter("ctmc_window_rows_total").Add(int64(res.WindowRows))
	if res.FoxGlynnRight > 0 {
		reg.Histogram("ctmc_foxglynn_window").Observe(float64(res.FoxGlynnRight - res.FoxGlynnLeft + 1))
	}
	span.End(
		obs.Int("iterations", int64(res.Iterations)),
		obs.Int("foxglynn_left", int64(res.FoxGlynnLeft)),
		obs.Int("foxglynn_right", int64(res.FoxGlynnRight)),
		obs.Float("rate", res.Rate),
		obs.Int("window_rows", int64(res.WindowRows)),
		obs.Float("dropped_mass", res.DroppedMass))
	return res, nil
}

// transient is the uninstrumented solve behind Transient.
func (u *Uniformized) transient(alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	n := u.n
	if len(alpha) != n {
		return nil, fmt.Errorf("%w: |alpha|=%d for %d states", ErrBadInput, len(alpha), n)
	}
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("%w: |w|=%d for %d states", ErrBadInput, len(w), n)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("%w: no time points", ErrBadInput)
	}
	sum := 0.0
	for _, a := range alpha {
		if a < 0 || math.IsNaN(a) {
			return nil, fmt.Errorf("%w: negative or NaN initial probability", ErrBadInput)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: initial distribution sums to %v", ErrBadInput, sum)
	}
	for _, t := range times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("%w: time point %v", ErrBadInput, t)
		}
	}
	if !sort.Float64sAreSorted(times) {
		return nil, fmt.Errorf("%w: time points must be ascending", ErrBadInput)
	}

	check.Probabilities("ctmc.transient initial distribution", alpha)

	res := &Result{Times: append([]float64(nil), times...)}
	res.Rate = u.q

	if u.q == 0 {
		// No transitions anywhere: the distribution never moves.
		return validatedResult(frozenResult(res, alpha, w, times)), nil
	}

	// Poisson windows per time point, and the global iteration bound.
	weights, minLeft, maxRight, err := u.windows(times, opts.epsilon())
	if err != nil {
		return nil, err
	}
	res.FoxGlynnLeft, res.FoxGlynnRight = minLeft, maxRight
	if opts.MaxIterations > 0 && maxRight > opts.MaxIterations {
		return nil, fmt.Errorf("%w: solve needs %d uniformisation steps, limit is %d",
			ErrIterationBudget, maxRight, opts.MaxIterations)
	}

	pool := opts.Pool
	if pool == nil {
		pool = sparse.DefaultPool()
	}

	// Accumulators.
	if w == nil {
		res.Distributions = make([][]float64, len(times))
		for k := range res.Distributions {
			res.Distributions[k] = make([]float64, n)
		}
	} else {
		res.Values = make([]float64, len(times))
	}

	// The functional folds over w's support only: every skipped term is
	// an exact 0·v[i], so the dot product is bit-identical to a full one.
	nw := 0
	for _, wi := range w {
		if wi != 0 {
			nw++
		}
	}
	wIdx := make([]int32, 0, nw)
	for i, wi := range w {
		if wi != 0 {
			wIdx = append(wIdx, int32(i))
		}
	}

	// foldIn accumulates weight·v into every requested time point. v is
	// zero outside rows, so the distribution fold skips only exact zeros.
	foldIn := func(it int, v []float64, rows []int32, tailMass bool) {
		if w == nil {
			for k, fw := range weights {
				p := fw.At(it)
				if tailMass {
					p = tailWeight(fw, it)
				}
				if p > 0 {
					dst := res.Distributions[k]
					for r := 0; r < len(rows); r += 2 {
						for i := rows[r]; i < rows[r+1]; i++ {
							dst[i] += p * v[i]
						}
					}
				}
			}
			return
		}
		var s float64
		computed := false
		for k, fw := range weights {
			p := fw.At(it)
			if tailMass {
				p = tailWeight(fw, it)
			}
			if p > 0 {
				if !computed {
					for _, i := range wIdx {
						s += w[i] * v[i]
					}
					computed = true
				}
				res.Values[k] += p * s
			}
		}
	}

	// Steady-state detection: once v_{n+1} ≈ v_n the DTMC has converged
	// (all further powers are equal up to the tolerance), so the rest
	// of every Poisson window collapses onto the current vector.
	ssdTol := opts.epsilon()
	checkEvery := 16

	// Iteration scratch: both vectors come from (and return to) the
	// pool's free list, so repeated solves on large chains stop paying
	// two O(states) allocations each.
	v := pool.GetVec(n)
	copy(v, alpha)
	next := pool.GetVec(n)
	defer func() {
		pool.PutVec(v)
		pool.PutVec(next)
	}()
	win := newWindow(alpha, u.shifts, opts.epsilon())
	done := func() *Result {
		res.WindowRows, res.DroppedMass = win.rows, win.dropped
		check.UnitScalar("ctmc.transient dropped mass over epsilon", win.dropped/win.budget)
		return validatedResult(res)
	}
	foldIn(0, v, win.cur, false)

	// Each step computes next = Pᵀ·v on the grown window only, folds the
	// untrimmed iterate into the answers, then trims the window. Single-
	// time-point distribution solves (wasted-charge, charge moments,
	// state snapshots) fold each iterate into exactly one accumulator,
	// so the fold fuses into the product: dst = Pᵀ·v and acc += p·dst in
	// one pass over the window. Iterations that run the steady-state
	// check keep the unfused kernel — the tail fold on convergence must
	// see an un-accumulated iterate. Every fold is an element-independent
	// multiply-add, so fused and unfused paths are bit-identical.
	fused := w == nil && len(times) == 1
	for it := 0; it < maxRight; it++ {
		if ctx := opts.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ctmc: transient solve cancelled at step %d: %w", it, err)
			}
		}
		ssdNow := !opts.DisableSteadyStateDetection && it%checkEvery == 0
		fuseNow := fused && !ssdNow
		var acc []float64
		var p float64
		if fuseNow {
			acc, p = res.Distributions[0], weights[0].At(it+1)
		}
		win.grow()
		if err := pool.MulVecRanges(u.pt, win.grown, next, v, acc, p); err != nil {
			return nil, fmt.Errorf("ctmc: uniformisation step %d: %w", it, err)
		}
		win.zeroStale(next)
		res.Iterations++
		res.SpMVs++
		if ssdNow {
			maxDelta := 0.0
			for r := 0; r < len(win.grown); r += 2 {
				for i := win.grown[r]; i < win.grown[r+1]; i++ {
					if d := math.Abs(next[i] - v[i]); d > maxDelta {
						maxDelta = d
					}
				}
			}
			if maxDelta <= ssdTol {
				// Fold the remaining window mass (> it) in one shot.
				foldIn(it+1, next, win.grown, true)
				return done(), nil
			}
		}
		if !fuseNow {
			foldIn(it+1, next, win.grown, false)
		}
		win.trim(next)
		v, next = next, v
		win.advance()
		if opts.OnIteration != nil {
			opts.OnIteration(res.Iterations, maxRight)
		}
	}
	return done(), nil
}

// validatedResult asserts, under the debugchecks build tag, that every
// produced distribution lies in [0,1] and every functional value is
// finite. The loop over time points is guarded by check.Enabled so
// release builds skip it entirely.
func validatedResult(res *Result) *Result {
	if check.Enabled {
		for _, d := range res.Distributions {
			check.UnitInterval("ctmc.transient distribution", d)
		}
		check.FiniteVec("ctmc.transient functional values", res.Values)
	}
	return res
}

// tailWeight returns the total Poisson weight of the window at indices
// >= from.
func tailWeight(fw *foxglynn.Weights, from int) float64 {
	sum := 0.0
	if from < fw.Left {
		from = fw.Left
	}
	for n := from; n <= fw.Right; n++ {
		sum += fw.At(n)
	}
	return sum
}

func frozenResult(res *Result, alpha, w, times []float64) *Result {
	if w == nil {
		res.Distributions = make([][]float64, len(times))
		for k := range res.Distributions {
			res.Distributions[k] = append([]float64(nil), alpha...)
		}
		return res
	}
	res.Values = make([]float64, len(times))
	s := 0.0
	for i, a := range alpha {
		s += w[i] * a
	}
	for k := range res.Values {
		res.Values[k] = s
	}
	return res
}

// rowScan is what one pass over a generator's rows finds: the largest
// |diagonal| entry, which q must dominate, and Pᵀ's distinct index
// offsets while there are at most sparse.MaxBands of them. Generator
// entry (r, c) is entry (c, r) of Pᵀ: offset r − c.
type rowScan struct {
	n, r    int
	maxDiag float64
	offs    []int // ascending; the diagonal's 0 is always present
	fits    bool
	badCol  int // a column outside the chain, or -1
}

// scanRows makes the rowScan pass over gen, failing on a column
// outside the chain.
func scanRows(gen Generator) (*rowScan, error) {
	s := &rowScan{n: gen.Rows(), offs: make([]int, 1, sparse.MaxBands), fits: true, badCol: -1}
	// One visitor for every row: a closure passed through the interface
	// escapes, so one per row would cost an allocation per row.
	visit := s.visit
	for s.r = 0; s.r < s.n; s.r++ {
		if gen.Row(s.r, visit); s.badCol >= 0 {
			return nil, fmt.Errorf("%w: generator row %d has column %d of %d", ErrBadInput, s.r, s.badCol, s.n)
		}
	}
	return s, nil
}

func (s *rowScan) visit(col int, v float64) {
	if col < 0 || col >= s.n {
		s.badCol = col
		return
	}
	if col == s.r {
		if a := math.Abs(v); a > s.maxDiag {
			s.maxDiag = a
		}
	}
	if !s.fits {
		return
	}
	k, ok := slices.BinarySearch(s.offs, s.r-col)
	switch {
	case ok:
	case len(s.offs) == sparse.MaxBands:
		s.fits = false
	default:
		s.offs = slices.Insert(s.offs, k, s.r-col)
	}
}

// uniformizedBands returns (I + Q/q) transposed as diagonal bands with
// the given ascending offsets, which must hold every offset of Pᵀ and 0,
// in one pass over the generator. Every value is computed exactly as
// uniformizedTransposed computes it, so the two layouts hold the same
// bits.
//
//numlint:requires positive(q)
func uniformizedBands(gen Generator, q float64, offs []int) (*sparse.Banded, error) {
	numlintContract_uniformizedBands(q)
	n := gen.Rows()
	// One allocation per band: NewBanded releases a band it stores as a
	// period, which a shared buffer would keep alive.
	vals := make([][]float64, len(offs))
	for k := range vals {
		vals[k] = make([]float64, n)
	}
	d, _ := slices.BinarySearch(offs, 0)
	diag := vals[d]
	for i := range diag {
		diag[i] = 1
	}
	var i int
	value := func(j int, v float64) {
		if j == i {
			diag[i] = 1 + v/q
			return
		}
		k, _ := slices.BinarySearch(offs, i-j)
		vals[k][j] = v / q
	}
	for i = 0; i < n; i++ {
		gen.Row(i, value)
	}
	pt, err := sparse.NewBanded(n, offs, vals)
	if err != nil {
		return nil, fmt.Errorf("ctmc: build uniformised bands: %w", err)
	}
	return pt, nil
}

// uniformizedTransposed returns (I + Q/q) transposed, in CSR form.
//
//numlint:requires positive(q)
func uniformizedTransposed(gen Generator, q float64) (*sparse.CSR, error) {
	numlintContract_uniformizedTransposed(q)
	n := gen.Rows()
	var (
		r        int
		nnz      int
		diagSeen bool
	)
	count := func(int, float64) { nnz++ }
	for r = 0; r < n; r++ {
		gen.Row(r, count)
	}
	b := sparse.NewBuilder(n, n, nnz+n)
	add := func(c int, v float64) {
		if c == r {
			// Transposed: entry (c, r) of Pᵀ.
			b.Add(r, r, 1+v/q)
			diagSeen = true
			return
		}
		b.Add(c, r, v/q)
	}
	for r = 0; r < n; r++ {
		diagSeen = false
		gen.Row(r, add)
		if !diagSeen {
			b.Add(r, r, 1)
		}
	}
	pt, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("ctmc: build uniformised matrix: %w", err)
	}
	return pt, nil
}
