package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

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
	// WindowPlans counts the products whose plan changed, in part or in
	// full: the first step's, and one for every step whose grown rows
	// differ from the step before's. A window that did not move keeps
	// its grown rows, and so does a move that grows to the same rows,
	// so 1 − WindowPlans/SpMVs is the share of products that ran the
	// plan of the step before unchanged.
	WindowPlans int
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

// Transient runs one uniformisation solve on the prebuilt operator: the
// full distribution π(t) at each time point when w is nil, or the
// functional w·π(t) otherwise. The operator's cached Pᵀ and Fox–Glynn
// tables are reused across calls; every option is per call.
func (u *Uniformized) Transient(alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	reg := opts.Obs
	if reg == nil {
		res, _, err := u.transient(alpha, w, times, opts)
		return res, err
	}
	_, span := obs.StartSpan(opts.Context, reg, "ctmc.transient",
		obs.Int("states", int64(u.n)),
		obs.Int("time_points", int64(len(times))),
		obs.Int("bands", int64(u.bands)),
		obs.Int("periodic_bands", int64(u.periodic)),
		obs.String("kernel", u.pt.Kernel()))
	res, st, err := u.transient(alpha, w, times, opts)
	strands := 1
	if st.two {
		strands = 2
	}
	if err != nil {
		reg.Counter("ctmc_solve_errors_total").Inc()
		span.End(obs.String("error", err.Error()), obs.Int("strands", int64(strands)))
		return nil, err
	}
	reg.Counter("ctmc_solves_total").Inc()
	reg.Counter("ctmc_uniformization_iterations_total").Add(int64(res.Iterations))
	reg.Counter("ctmc_spmv_total").Add(int64(res.SpMVs))
	reg.Counter("ctmc_window_rows_total").Add(int64(res.WindowRows))
	reg.Counter("ctmc_window_plans_total").Add(int64(res.WindowPlans))
	if st.two {
		reg.Counter("ctmc_two_strand_solves_total").Inc()
	}
	if res.FoxGlynnRight > 0 {
		reg.Histogram("ctmc_foxglynn_window").Observe(float64(res.FoxGlynnRight - res.FoxGlynnLeft + 1))
	}
	span.End(
		obs.Int("iterations", int64(res.Iterations)),
		obs.Int("foxglynn_left", int64(res.FoxGlynnLeft)),
		obs.Int("foxglynn_right", int64(res.FoxGlynnRight)),
		obs.Float("rate", res.Rate),
		obs.Int("window_rows", int64(res.WindowRows)),
		obs.Int("window_plans", int64(res.WindowPlans)),
		obs.Float("dropped_mass", res.DroppedMass),
		obs.Int("strands", int64(strands)),
		obs.Float("barrier_wait_s", st.wait.Seconds()))
	return res, nil
}

// transient is the uninstrumented solve behind Transient.
func (u *Uniformized) transient(alpha, w, times []float64, opts TransientOptions) (*Result, loopStats, error) {
	n := u.n
	if len(alpha) != n {
		return nil, loopStats{}, fmt.Errorf("%w: |alpha|=%d for %d states", ErrBadInput, len(alpha), n)
	}
	if w != nil && len(w) != n {
		return nil, loopStats{}, fmt.Errorf("%w: |w|=%d for %d states", ErrBadInput, len(w), n)
	}
	if len(times) == 0 {
		return nil, loopStats{}, fmt.Errorf("%w: no time points", ErrBadInput)
	}
	sum := 0.0
	for _, a := range alpha {
		if a < 0 || math.IsNaN(a) {
			return nil, loopStats{}, fmt.Errorf("%w: negative or NaN initial probability", ErrBadInput)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, loopStats{}, fmt.Errorf("%w: initial distribution sums to %v", ErrBadInput, sum)
	}
	for _, t := range times {
		if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, loopStats{}, fmt.Errorf("%w: time point %v", ErrBadInput, t)
		}
	}
	if !sort.Float64sAreSorted(times) {
		return nil, loopStats{}, fmt.Errorf("%w: time points must be ascending", ErrBadInput)
	}

	check.Probabilities("ctmc.transient initial distribution", alpha)

	res := &Result{Times: append([]float64(nil), times...)}
	res.Rate = u.q

	if u.q == 0 {
		// No transitions anywhere: the distribution never moves.
		return validatedResult(frozenResult(res, alpha, w, times)), loopStats{}, nil
	}

	// Poisson windows per time point, and the global iteration bound.
	weights, minLeft, maxRight, err := u.windows(times, opts.epsilon())
	if err != nil {
		return nil, loopStats{}, err
	}
	res.FoxGlynnLeft, res.FoxGlynnRight = minLeft, maxRight
	if opts.MaxIterations > 0 && maxRight > opts.MaxIterations {
		return nil, loopStats{}, fmt.Errorf("%w: solve needs %d uniformisation steps, limit is %d",
			ErrIterationBudget, maxRight, opts.MaxIterations)
	}

	pool := opts.Pool
	if pool == nil {
		pool = sparse.DefaultPool()
	}
	sv := &solve{pool: pool, w: w, weights: weights, res: res}

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
	sv.wIdx = make([]int32, 0, nw)
	for i, wi := range w {
		if wi != 0 {
			sv.wIdx = append(sv.wIdx, int32(i))
		}
	}

	// Steady-state detection: once v_{n+1} ≈ v_n the DTMC has converged
	// (all further powers are equal up to the tolerance), so the rest
	// of every Poisson window collapses onto the current vector.
	sv.tol = opts.epsilon()
	checkEvery := 16

	// Iteration scratch: both vectors come from (and return to) the
	// pool's free list, so repeated solves on large chains stop paying
	// two O(states) allocations each.
	sv.v = pool.GetVec(n)
	copy(sv.v, alpha)
	sv.next = pool.GetVec(n)
	defer func() {
		pool.PutVec(sv.v)
		pool.PutVec(sv.next)
	}()
	// Registered after the vectors' return, so it runs before it: a lent
	// worker is back, its last share done, before the vectors are reused.
	defer func() {
		if sv.strand != nil {
			sv.strand.Return()
		}
	}()
	win := newWindow(pool, u.pt, alpha, u.shifts, opts.epsilon())
	sv.win = win
	done := func() *Result {
		res.WindowRows, res.WindowPlans, res.DroppedMass = win.rows, win.plans, win.dropped
		check.UnitScalar("ctmc.transient dropped mass over epsilon", win.dropped/win.budget)
		return validatedResult(res)
	}
	sv.fold(0, sv.v, win.cur, false)
	sv.functional(0, sv.v, false)

	// Each step computes next = Pᵀ·v on the grown window only, folds the
	// untrimmed iterate into the answers, then trims the window; on two
	// strands, each runs its side of the product, the fold and the search
	// for trim candidates (see solve.share), and the caller the rest.
	// Single-time-point distribution solves (a piecewise phase's
	// hand-over, charge moments, state snapshots) fold each iterate into
	// exactly one accumulator, so the fold fuses into the product:
	// dst = Pᵀ·v and acc += p·dst in one pass over the window. Iterations
	// that run the steady-state check keep the unfused kernel — the tail
	// fold on convergence must see an un-accumulated iterate. Every fold
	// is an element-independent multiply-add, so fused and unfused paths,
	// and one strand or two, are bit-identical.
	fused := w == nil && len(times) == 1
	for it := 0; it < maxRight; it++ {
		if ctx := opts.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, sv.stats, fmt.Errorf("ctmc: transient solve cancelled at step %d: %w", it, err)
			}
		}
		ssdNow := !opts.DisableSteadyStateDetection && it%checkEvery == 0
		sv.it, sv.ssd, sv.fuse = it, ssdNow, fused && !ssdNow
		sv.acc, sv.p = nil, 0
		if sv.fuse {
			sv.acc, sv.p = res.Distributions[0], weights[0].At(it+1)
		}
		win.prepare()
		win.split(sv.twoStrands())
		sv.phase = phaseProduct | phaseFold
		if ssdNow {
			sv.phase = phaseProduct
		}
		if err := sv.run(); err != nil {
			return nil, sv.stats, fmt.Errorf("ctmc: uniformisation step %d: %w", it, err)
		}
		res.Iterations++
		res.SpMVs++
		if ssdNow {
			if win.sides[0].settled && win.sides[1].settled {
				// Fold the remaining window mass (> it) in one shot.
				sv.fold(it+1, sv.next, win.grown, true)
				sv.functional(it+1, sv.next, true)
				return done(), sv.stats, nil
			}
			sv.phase = phaseFold
			if err := sv.run(); err != nil {
				return nil, sv.stats, fmt.Errorf("ctmc: uniformisation step %d: %w", it, err)
			}
		}
		if win.sides[1].lo < win.sides[1].hi {
			sv.functional(it+1, nil, false)
		} else {
			sv.functional(it+1, sv.next, false)
			win.trimOwn(sv.next)
		}
		win.trimRest(sv.next)
		sv.v, sv.next = sv.next, sv.v
		win.advance()
		if opts.OnIteration != nil {
			opts.OnIteration(res.Iterations, maxRight)
		}
	}
	return done(), sv.stats, nil
}

// twoStrandRows is the grown rows from which a step runs on two
// strands: below about 8,000 rows what a step spends to meet the lent
// worker and to tally its trim candidates costs what the split saves
// (see docs/PERFORMANCE.md, "Two strands per solve"). A solve on two
// strands goes back to one only below three quarters of that, so a
// window about the threshold does not flap between the two. It is a
// variable so that tests can run small chains on two strands.
var twoStrandRows = 8192

// The phases of a step that the strands run: the product, with the
// zeroing of stale rows and the steady-state test, and the fold, with
// the search for trim candidates. A step runs both at once, but for a
// steady-state check, which must know that the chain has not settled
// before it folds.
const (
	phaseProduct = 1 << iota
	phaseFold
)

// solve is the state of one uniformisation loop that its strands share.
// The caller writes the step fields before it publishes a phase, and
// reads what the strands wrote after the barrier.
type solve struct {
	pool    *sparse.Pool
	res     *Result
	weights []*foxglynn.Weights
	w       []float64
	wIdx    []int32
	win     *window
	tol     float64

	// strand is the pool's worker lent to the solve, nil until the
	// window first reaches twoStrandRows or where the pool lends none;
	// two reports whether the solve runs on two strands now; gen is the
	// last generation published.
	strand *sparse.Strand
	asked  bool
	two    bool
	gen    uint32
	stats  loopStats

	// The step: its index, its vectors, the phases to run, whether it
	// tests for a steady state, and the fused fold's target and weight.
	it      int
	v, next []float64
	phase   int
	ssd     bool
	fuse    bool
	acc     []float64
	p       float64
}

// loopStats is what the ctmc.transient span reports of the strands:
// whether some step ran on two, and how long the caller waited at the
// barrier.
type loopStats struct {
	two  bool
	wait time.Duration
}

// twoStrands reports whether the next step runs on two strands. It
// decides from the step's grown rows, with the hysteresis of
// twoStrandRows, asks the pool for a worker the first time the window
// is large enough, and gives the worker back once another solve asks
// for it, from when on the solve runs on one strand.
func (sv *solve) twoStrands() bool {
	rows := sv.win.grownRows
	switch {
	case rows >= twoStrandRows:
		sv.two = true
	case rows < twoStrandRows*3/4:
		sv.two = false
	}
	if !sv.two {
		return false
	}
	if !sv.asked {
		sv.asked = true
		sv.strand = sv.pool.Lend(sv.lent)
	}
	if sv.strand == nil {
		return false
	}
	if sv.strand.Wanted() {
		sv.strand.Give()
	}
	if !sv.strand.Held() {
		return false
	}
	sv.stats.two = true
	return true
}

// run runs the step's phases on both sides: side 1 on the lent worker
// when the caller holds one, side 0 on the caller, then waits for the
// worker. It reports a side's error, side 0's first.
func (sv *solve) run() error {
	s1 := &sv.win.sides[1]
	switch {
	case s1.lo == s1.hi:
		sv.share(0)
		s1.settled, s1.err = true, nil
	case sv.strand != nil && sv.strand.Held():
		sv.gen++
		sv.strand.Step(sv.gen)
		sv.share(0)
		start := time.Now()
		ran := sv.strand.Wait(sv.gen)
		sv.stats.wait += time.Since(start)
		if !ran {
			sv.share(1)
		}
	default:
		// The pool closed while the strands ran: the worker has left.
		sv.share(0)
		sv.share(1)
	}
	if err := sv.win.sides[0].err; err != nil {
		return err
	}
	return s1.err
}

// lent is the lent worker's share of a step.
func (sv *solve) lent() { sv.share(1) }

// share runs the step's phases on side k: the product over its plan
// (replanned first if its ranges changed), the zeroing of its stale
// rows and, on a steady-state check, its settled test; then the
// distribution fold over its rows and, on two strands, the saving of
// its entries on w's support and its part of the trim: side 0 trims
// its rows, side 1 cuts its candidates (see window.trimOwn and
// cutRuns). On one strand the caller trims after the functional fold.
// Side 1's product is the second half of the one counted on side 0.
func (sv *solve) share(k int) {
	win := sv.win
	sd := &win.sides[k]
	if sv.phase&phaseProduct != 0 {
		sd.err = nil
		if sd.replan {
			if err := sv.pool.Plan(&sd.plan, win.m, sd.ranges); err != nil {
				sd.err = err
				return
			}
			sd.replan = false
		}
		var err error
		if k == 0 {
			err = sv.pool.MulVecPlan(&sd.plan, sv.next, sv.v, sv.acc, sv.p)
		} else {
			err = sv.strand.MulVecPlan(&sd.plan, sv.next, sv.v, sv.acc, sv.p)
		}
		if err != nil {
			sd.err = err
			return
		}
		win.zeroStale(sv.next, sd.lo, sd.hi)
		sd.settled = sv.ssd && settled(sv.next, sv.v, sv.tol, sd.ranges)
	}
	if sv.phase&phaseFold != 0 {
		if !sv.fuse {
			sv.fold(sv.it+1, sv.next, sd.ranges, false)
		}
		if win.sides[1].lo == win.sides[1].hi {
			return // one strand: the caller trims after the functional fold
		}
		if sv.w != nil {
			// Before the trim: the functional folds the untrimmed iterate.
			wIdx := sv.wIdx
			lo := sort.Search(len(wIdx), func(k int) bool { return wIdx[k] >= sd.lo })
			hi := lo + sort.Search(len(wIdx)-lo, func(k int) bool { return wIdx[lo+k] >= sd.hi })
			if sd.wv == nil {
				sd.wv = make([]float64, 0, len(wIdx))
			}
			sd.wv = sd.wv[:0]
			for _, i := range wIdx[lo:hi] {
				sd.wv = append(sd.wv, sv.next[i])
			}
		}
		if k == 0 {
			win.trimOwn(sv.next)
		} else {
			win.cutRuns(sv.next, sd)
		}
	}
}

// fold accumulates weight·v into every requested distribution over
// rows, the Poisson weight of step it or, with tailMass, of every step
// from it on. v is zero outside the window, so the fold skips only
// exact zeros. A functional solve folds in functional.
func (sv *solve) fold(it int, v []float64, rows []int32, tailMass bool) {
	if sv.w != nil {
		return
	}
	for k, fw := range sv.weights {
		p := fw.At(it)
		if tailMass {
			p = tailWeight(fw, it)
		}
		if p > 0 {
			dst := sv.res.Distributions[k]
			for r := 0; r < len(rows); r += 2 {
				for i := rows[r]; i < rows[r+1]; i++ {
					dst[i] += p * v[i]
				}
			}
		}
	}
}

// functional accumulates weight·(w·v) into every requested value, the
// Poisson weight of step it or, with tailMass, of every step from it
// on. The dot product over w's support runs once, in order, and only
// when some weight is positive; with v nil it reads the step's
// untrimmed iterate that the sides saved (see dot).
func (sv *solve) functional(it int, v []float64, tailMass bool) {
	if sv.w == nil {
		return
	}
	var s float64
	computed := false
	for k, fw := range sv.weights {
		p := fw.At(it)
		if tailMass {
			p = tailWeight(fw, it)
		}
		if p > 0 {
			if !computed {
				s = sv.dot(v)
				computed = true
			}
			sv.res.Values[k] += p * s
		}
	}
}

// dot returns w·v over w's support, in order; with v nil, from the
// entries the sides saved before their trim (see share), side 0's then
// side 1's.
func (sv *solve) dot(v []float64) float64 {
	w, idx := sv.w, sv.wIdx
	var s float64
	if v != nil {
		for _, i := range idx {
			s += w[i] * v[i]
		}
		return s
	}
	for k := range sv.win.sides {
		for _, x := range sv.win.sides[k].wv {
			s += w[idx[0]] * x
			idx = idx[1:]
		}
	}
	return s
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
