package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	// Epsilon bounds the truncated Poisson tail mass per time point.
	// Zero selects 1e-12.
	Epsilon float64
	// Workers sets the SpMV parallelism; zero selects runtime.NumCPU().
	// Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, supplies the SpMV worker pool. Sharing one
	// Pool across concurrent solves (e.g. a scenario sweep) keeps the
	// total parallelism bounded instead of multiplying per solve.
	Pool *sparse.Pool
	// MaxIterations caps the number of uniformisation steps. When the
	// Fox–Glynn window of the largest time point needs more, the solve
	// fails with ErrIterationBudget before iterating. Zero is unlimited.
	MaxIterations int
	// Context, when non-nil, cancels the iteration loop between steps;
	// the returned error wraps Context.Err().
	Context context.Context
	// UniformizationSlack multiplies the maximal exit rate to obtain the
	// uniformisation constant q. Zero selects 1.02; the slack guarantees
	// strictly positive self-loop probabilities, which improves the
	// convergence behaviour of periodic chains.
	UniformizationSlack float64
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

func (o TransientOptions) slack() float64 {
	if o.UniformizationSlack <= 0 {
		return 1.02
	}
	return o.UniformizationSlack
}

// pool resolves the SpMV pool for one solve. The second result reports
// ownership: an owned pool was created for this solve and must be
// closed when the solve finishes. The nil-Pool, default-Workers path
// shares the process-wide sparse.DefaultPool — with persistent worker
// goroutines, constructing a pool per solve would leak a worker set
// every call.
func (o TransientOptions) pool() (*sparse.Pool, bool) {
	if o.Pool != nil {
		return o.Pool, false
	}
	if o.Workers == 0 {
		return sparse.DefaultPool(), false
	}
	return sparse.NewPool(o.Workers), true
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
}

// Uniformized is a reusable uniformisation operator for one generator:
// the uniformisation constant q, the transposed probabilistic matrix
// Pᵀ = (I + Q/q)ᵀ, and a cache of Fox–Glynn weight tables keyed on
// (q·t, ε). Building Pᵀ costs a full transpose-and-scale pass over the
// generator, so callers issuing many transient queries against the same
// chain should construct the operator once and call Transient
// repeatedly. A Uniformized is immutable apart from the internally
// synchronised weight cache and is safe for concurrent use.
type Uniformized struct {
	gen *sparse.CSR
	q   float64
	pt  *sparse.CSR // nil when q == 0 (no transitions anywhere)

	mu      sync.RWMutex
	weights map[weightKey]*foxglynn.Weights
}

// weightKey identifies one Fox–Glynn table by the exact bit patterns of
// its Poisson rate q·t and truncation epsilon.
type weightKey struct {
	qt, eps uint64
}

// NewUniformized builds the reusable operator for the generator. Only
// UniformizationSlack is consulted from opts; the remaining fields are
// per-solve and passed to Transient.
func NewUniformized(gen *sparse.CSR, opts TransientOptions) (*Uniformized, error) {
	n := gen.Rows()
	if gen.Cols() != n {
		return nil, fmt.Errorf("%w: generator is %dx%d", ErrBadInput, gen.Rows(), gen.Cols())
	}
	q := gen.MaxAbsDiagonal() * opts.slack()
	u := &Uniformized{
		gen:     gen,
		q:       q,
		weights: make(map[weightKey]*foxglynn.Weights),
	}
	if q > 0 {
		pt, err := uniformizedTransposed(gen, q)
		if err != nil {
			return nil, err
		}
		u.pt = pt
	}
	return u, nil
}

// Rate reports the uniformisation constant q.
func (u *Uniformized) Rate() float64 { return u.q }

// NumStates reports the dimension of the underlying chain.
func (u *Uniformized) NumStates() int { return u.gen.Rows() }

// weightsFor returns the Fox–Glynn table for time t and truncation eps,
// computing and caching it on first use.
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
	u.weights[key] = fw
	u.mu.Unlock()
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

// TransientDistributions computes the full state distribution of the
// CTMC with the given generator at each time point via uniformisation.
// The generator may be any valid infinitesimal generator, including ones
// with absorbing states; validity is the caller's responsibility at this
// level (Chain validates on construction).
func TransientDistributions(gen *sparse.CSR, alpha, times []float64, opts TransientOptions) (*Result, error) {
	u, err := NewUniformized(gen, opts)
	if err != nil {
		return nil, err
	}
	return u.Transient(alpha, nil, times, opts)
}

// TransientFunctional computes w·π(t) — the probability-weighted sum of
// the functional w over states — at each time point. It shares one
// v_n = α·Pⁿ sequence across all time points, so the cost is that of
// solving only the largest one.
func TransientFunctional(gen *sparse.CSR, alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil functional", ErrBadInput)
	}
	u, err := NewUniformized(gen, opts)
	if err != nil {
		return nil, err
	}
	return u.Transient(alpha, w, times, opts)
}

// Transient runs one uniformisation solve on the prebuilt operator: the
// full distribution π(t) at each time point when w is nil, or the
// functional w·π(t) otherwise. The operator's cached Pᵀ and Fox–Glynn
// tables are reused across calls; Epsilon, Workers/Pool, MaxIterations,
// Context, Obs and the callbacks are per-call (UniformizationSlack is
// fixed at construction and ignored here).
func (u *Uniformized) Transient(alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	reg := opts.Obs
	if reg == nil {
		return u.transient(alpha, w, times, opts)
	}
	_, span := obs.StartSpan(opts.Context, reg, "ctmc.transient",
		obs.Int("states", int64(u.gen.Rows())),
		obs.Int("time_points", int64(len(times))))
	res, err := u.transient(alpha, w, times, opts)
	if err != nil {
		reg.Counter("ctmc_solve_errors_total").Inc()
		span.End(obs.String("error", err.Error()))
		return nil, err
	}
	reg.Counter("ctmc_solves_total").Inc()
	reg.Counter("ctmc_uniformization_iterations_total").Add(int64(res.Iterations))
	reg.Counter("ctmc_spmv_total").Add(int64(res.SpMVs))
	if res.FoxGlynnRight > 0 {
		reg.Histogram("ctmc_foxglynn_window").Observe(float64(res.FoxGlynnRight - res.FoxGlynnLeft + 1))
	}
	span.End(
		obs.Int("iterations", int64(res.Iterations)),
		obs.Int("foxglynn_left", int64(res.FoxGlynnLeft)),
		obs.Int("foxglynn_right", int64(res.FoxGlynnRight)),
		obs.Float("rate", res.Rate))
	return res, nil
}

// transient is the uninstrumented solve behind Transient.
func (u *Uniformized) transient(alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	n := u.gen.Rows()
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

	check.GeneratorRows("ctmc.transient generator", u.gen)
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

	pool, ownedPool := opts.pool()
	if ownedPool {
		defer pool.Close()
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

	// foldIn accumulates weight·v into every requested time point.
	foldIn := func(it int, v []float64, tailMass bool) {
		if w == nil {
			for k, fw := range weights {
				p := fw.At(it)
				if tailMass {
					p = tailWeight(fw, it)
				}
				if p > 0 {
					dst := res.Distributions[k]
					for i, vi := range v {
						dst[i] += p * vi
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
					for i, vi := range v {
						s += w[i] * vi
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
	// Single-time-point distribution solves (wasted-charge, charge
	// moments, state snapshots) fold each iterate into exactly one
	// accumulator, so the fold fuses into the product: dst = Pᵀ·v and
	// acc += p·dst in one pass over the matrix. Iterations that run the
	// steady-state check keep the unfused kernel — the tail fold on
	// convergence must see an un-accumulated iterate, exactly like the
	// serial reference. Every fold is an element-independent multiply-
	// add, so fused and unfused paths are bit-identical.
	fused := w == nil && len(times) == 1
	foldedAhead := false
	for it := 0; it <= maxRight; it++ {
		if ctx := opts.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ctmc: transient solve cancelled at step %d: %w", it, err)
			}
		}
		if !foldedAhead {
			foldIn(it, v, false)
		}
		foldedAhead = false
		if it == maxRight {
			break
		}
		ssdNow := !opts.DisableSteadyStateDetection && it%checkEvery == 0
		if fused && !ssdNow {
			if err := pool.MulVecAccum(u.pt, next, v, res.Distributions[0], weights[0].At(it+1)); err != nil {
				return nil, fmt.Errorf("ctmc: uniformisation step %d: %w", it, err)
			}
			foldedAhead = true
		} else if err := pool.MulVec(u.pt, next, v); err != nil {
			return nil, fmt.Errorf("ctmc: uniformisation step %d: %w", it, err)
		}
		if ssdNow {
			maxDelta := 0.0
			for i := range v {
				if d := math.Abs(next[i] - v[i]); d > maxDelta {
					maxDelta = d
				}
			}
			if maxDelta <= ssdTol {
				// Fold the remaining window mass (> it) in one shot.
				v, next = next, v
				res.Iterations++
				res.SpMVs++
				foldIn(it+1, v, true)
				return validatedResult(res), nil
			}
		}
		v, next = next, v
		res.Iterations++
		res.SpMVs++
		if opts.OnIteration != nil {
			opts.OnIteration(res.Iterations, maxRight)
		}
	}
	return validatedResult(res), nil
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

// uniformizedTransposed returns (I + Q/q) transposed, in CSR form.
//
//numlint:requires positive(q)
func uniformizedTransposed(gen *sparse.CSR, q float64) (*sparse.CSR, error) {
	numlintContract_uniformizedTransposed(q)
	n := gen.Rows()
	b := sparse.NewBuilder(n, n, gen.NNZ()+n)
	for r := 0; r < n; r++ {
		diagSeen := false
		gen.Row(r, func(c int, v float64) {
			if c == r {
				// Transposed: entry (c, r) of Pᵀ.
				b.Add(r, r, 1+v/q)
				diagSeen = true
				return
			}
			b.Add(c, r, v/q)
		})
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
