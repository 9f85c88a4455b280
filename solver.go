package batlife

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"batlife/internal/core"
	"batlife/internal/ctmc"
	"batlife/internal/engine"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/performability"
	"batlife/internal/sparse"
)

// ErrIterationLimit reports that an analysis was refused because its
// transient solve would exceed AnalysisOptions.MaxIterations.
var ErrIterationLimit = errors.New("batlife: iteration limit exceeded")

// Telemetry is the observability registry of the solver stack: named
// counters, gauges and histograms, a span tracer, and an optional
// structured logger. Attach one via SolverOptions.Telemetry to record
// cache behaviour, uniformisation iteration counts, Fox–Glynn windows
// and per-stage spans; see docs/OBSERVABILITY.md for the metric and span
// catalogue. A nil *Telemetry disables all recording at (near) zero
// cost.
type Telemetry = obs.Registry

// NewTelemetry returns an enabled Telemetry registry.
func NewTelemetry() *Telemetry { return obs.NewRegistry() }

// SolveReport is per-solve telemetry, filled in place when
// AnalysisOptions.Report points at one and the analysis succeeds. Unlike
// Progress, requesting a report does not bypass the solver's result
// memo: a memoised answer replays the statistics of the solve that
// produced it, with ResultMemoHit set.
type SolveReport struct {
	// States and Transitions describe the expanded CTMC.
	States, Transitions int
	// Iterations counts uniformisation steps; SpMVs sparse
	// matrix-vector products (equal for a full solve). A phased solve
	// sums both over its phases; ExactCDF counts transform evaluations
	// as Iterations; ExpectedLifetime reports neither.
	Iterations, SpMVs int
	// FoxGlynnLeft and FoxGlynnRight delimit the Poisson truncation
	// window the transient solve committed to — with Iterations, the
	// cost drivers of uniformisation on large chains. They stay 0 for a
	// phased solve, whose phases each have a window of their own.
	FoxGlynnLeft, FoxGlynnRight int
	// UniformizationRate is the uniformisation constant q.
	UniformizationRate float64
	// ModelCacheHit reports whether the expanded CTMC came from the
	// engine cache (including waiting on a concurrent build);
	// ResultMemoHit whether the whole answer came from the result memo.
	ModelCacheHit, ResultMemoHit bool
	// BuildDuration is the time spent obtaining the expanded model
	// (≈0 on a cache hit); SolveDuration the time in the analysis
	// proper (≈0 on a memo hit).
	BuildDuration, SolveDuration time.Duration
}

// AnalysisOptions tunes one Solver analysis. The zero value selects the
// engine defaults everywhere except Delta, which the approximate
// analyses require.
type AnalysisOptions struct {
	// Delta is the charge discretisation step in ampere-seconds; it
	// must divide both well capacities. Required by the approximate
	// analyses (LifetimeDistribution, PhasedLifetimeDistribution,
	// ExpectedLifetime, StrandedCharge); ignored by ExactCDF, which
	// needs no grid.
	Delta float64
	// Epsilon bounds the truncated Poisson tail mass of the transient
	// solve, and separately the probability mass its windowed iteration
	// may drop: a CDF value is at most 2·Epsilon below the exact
	// uniformisation value. Zero selects 1e-12.
	Epsilon float64
	// MaxIterations caps the number of uniformisation steps. A solve
	// whose Fox–Glynn window needs more fails up front with an error
	// matching ErrIterationLimit. Zero is unlimited.
	MaxIterations int
	// Context, when non-nil, cancels long-running solves between
	// iterations; the returned error wraps Context.Err().
	Context context.Context
	// Progress, when non-nil, is invoked after every uniformisation
	// step with (done, total). Setting it bypasses the solver's result
	// memo for the call — a memoised answer performs no iterations, so
	// replaying progress would be a lie.
	Progress func(done, total int)
	// Report, when non-nil, is filled with per-solve telemetry on
	// success. It does not bypass the result memo (see SolveReport).
	Report *SolveReport
}

// SolverOptions configures a Solver.
type SolverOptions struct {
	// ModelCacheCapacity bounds the number of expanded CTMCs the solver
	// retains across queries, each costing O(states + transitions)
	// memory. Values < 1 select 8.
	ModelCacheCapacity int
	// ResultCacheCapacity bounds the number of memoised analysis
	// results (distributions and scalars — cheap compared to models).
	// Values < 1 select 64.
	ResultCacheCapacity int
	// Workers sets the parallelism of the solver's shared SpMV pool;
	// values < 1 select runtime.NumCPU(). With 2 or more, one large
	// solve at a time may borrow the pool's one worker as its second
	// strand; with 1, every solve runs on its caller alone.
	Workers int
	// Telemetry, when non-nil, records solver metrics and spans: engine
	// cache hits/misses, uniformisation iterations, Fox–Glynn windows,
	// SpMV pool traffic, per-scenario sweep spans. Nil (the default)
	// disables recording; the remaining cost is a handful of nil checks
	// and no allocations on the hot path.
	Telemetry *Telemetry
}

// Solver is a reusable analysis engine: it caches expanded CTMCs —
// keyed on (battery, workload, Δ) — together with their uniformised
// operators and Fox–Glynn weight tables, and memoises full analysis
// results, so repeated queries against the same model skip construction
// entirely. Its five analyses — LifetimeDistribution,
// PhasedLifetimeDistribution, ExpectedLifetime, StrandedCharge and
// ExactCDF — share one memo, one "solver.solve" span and one
// SolveReport path. All methods are safe for concurrent use; Sweep
// evaluates whole scenario grids in parallel on top of the shared
// cache.
type Solver struct {
	eng     *engine.Engine
	results *engine.Cache[resultKey, any]
	obs     *obs.Registry

	// Pre-resolved counters (nil without telemetry; Add is then a no-op)
	// so the memo fast path pays atomic increments, not name lookups.
	solves, memoHits *obs.Counter
}

// NewSolver returns a Solver with the given cache bounds and worker
// pool.
func NewSolver(opts SolverOptions) *Solver {
	rc := opts.ResultCacheCapacity
	if rc < 1 {
		rc = 64
	}
	s := &Solver{
		eng: engine.New(engine.Options{
			Capacity: opts.ModelCacheCapacity,
			Workers:  opts.Workers,
			Obs:      opts.Telemetry,
		}),
		results: engine.NewCache[resultKey, any](rc),
		obs:     opts.Telemetry,
	}
	if s.obs != nil {
		s.solves = s.obs.Counter("solver_solves_total")
		s.memoHits = s.obs.Counter("solver_result_memo_hits_total")
	}
	return s
}

// Stats reports the solver's model-cache counters: hits (including
// waiter-hits on concurrent builds), misses (= builds), LRU evictions
// and current entries. Available with or without Telemetry.
func (s *Solver) Stats() engine.Stats { return s.eng.Stats() }

// Close releases the solver's SpMV pool worker goroutine, if it
// started. The solver stays usable afterwards — later analyses run on
// their caller alone — so Close is a resource release for callers that
// are done with two-strand solving, not a shutdown. Idempotent and safe
// to call concurrently with in-flight solves (they finish normally).
func (s *Solver) Close() { s.eng.Close() }

// analysis kinds for result memoisation; analyses names each kind in
// the "solver.solve" span's analysis attribute.
const (
	kindCDF = iota + 1
	kindMean
	kindStranded
	kindExact
	kindPhased
)

var analyses = [...]string{
	kindCDF:      "cdf",
	kindMean:     "mean",
	kindStranded: "stranded",
	kindExact:    "exact",
	kindPhased:   "phased",
}

// resultKey identifies one memoised analysis result.
type resultKey struct {
	model   engine.Key
	query   [sha256.Size]byte // hash of the time grid, if the analysis has one
	kind    uint8
	epsBits uint64
	maxIter int
}

// hashFloats digests a float64 slice by exact bit patterns.
func hashFloats(xs []float64) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(len(xs))))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// memoKey builds the result-cache key for a query. The mean, stranded
// and exact analyses read neither Epsilon nor MaxIterations, so their
// keys leave both out.
func memoKey(kind uint8, model engine.Key, query []float64, opts AnalysisOptions) resultKey {
	key := resultKey{model: model, query: hashFloats(query), kind: kind}
	if kind != kindMean && kind != kindStranded && kind != kindExact {
		key.epsBits, key.maxIter = math.Float64bits(opts.Epsilon), opts.MaxIterations
	}
	return key
}

// clone deep-copies a Distribution so cached results stay immutable
// under caller mutation.
func (d *Distribution) clone() *Distribution {
	if d == nil {
		return nil
	}
	out := *d
	out.Times = append([]float64(nil), d.Times...)
	out.EmptyProb = append([]float64(nil), d.EmptyProb...)
	return &out
}

// wrapErr normalises internal errors for the facade: argument-class
// failures (bad grid step, malformed model, bad query ranges, a model
// whose battery never empties) become errors.Is-matchable against
// ErrBadArgument, iteration-budget refusals against ErrIterationLimit,
// and everything else keeps the "batlife:" prefix with the cause chain
// intact (so context.Canceled and friends still match through it).
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBadArgument) || errors.Is(err, ErrIterationLimit) {
		return err
	}
	if errors.Is(err, core.ErrBadGrid) || errors.Is(err, mrm.ErrBadModel) ||
		errors.Is(err, core.ErrPhaseMismatch) || errors.Is(err, core.ErrNoAbsorption) ||
		errors.Is(err, ctmc.ErrBadInput) || errors.Is(err, performability.ErrBadQuery) {
		return fmt.Errorf("%w: %w", ErrBadArgument, err)
	}
	if errors.Is(err, ctmc.ErrIterationBudget) {
		return fmt.Errorf("%w: %w", ErrIterationLimit, err)
	}
	return fmt.Errorf("batlife: %w", err)
}

// traced runs solve under the facade-level "solver.solve" span for one
// analysis, handing it the context the engine/core/ctmc stage spans
// nest beneath. When tracing is off (no registry and no span in ctx) it
// calls solve with ctx as is and records nothing, keeping the disabled
// path allocation-free. Callers trace only a result-memo miss: a memo
// hit is a sub-microsecond lookup already covered by the request-level
// span, and recording it would put span allocation on the solver's
// hottest path (BenchmarkTraceOverhead pins the warm-path overhead).
func (s *Solver) traced(ctx context.Context, analysis string, solve func(context.Context) error) error {
	if s.obs == nil && obs.SpanFromContext(ctx) == nil {
		return solve(ctx)
	}
	ctx, span := obs.StartSpan(ctx, s.obs, "solver.solve", obs.String("analysis", analysis))
	if err := solve(ctx); err != nil {
		span.End(obs.String("error", err.Error()))
		return err
	}
	span.End()
	return nil
}

// solveOptions translates facade options into core solve options that
// run under ctx.
func (s *Solver) solveOptions(ctx context.Context, opts AnalysisOptions, pool *sparse.Pool) core.SolveOptions {
	return core.SolveOptions{
		Epsilon:       opts.Epsilon,
		Pool:          pool,
		MaxIterations: opts.MaxIterations,
		Context:       ctx,
		OnIteration:   opts.Progress,
		Obs:           s.obs,
	}
}

// report is the SolveReport of a solve with the given statistics.
func report(st core.Stats) SolveReport {
	return SolveReport{
		States:             st.States,
		Transitions:        st.NNZ,
		Iterations:         st.Iterations,
		SpMVs:              st.SpMVs,
		FoxGlynnLeft:       st.FoxGlynnLeft,
		FoxGlynnRight:      st.FoxGlynnRight,
		UniformizationRate: st.Rate,
	}
}

// chainReport is the SolveReport of an absorption solve on x (the mean
// lifetime, the stranded charge): a block linear solve, with no
// uniformisation statistics to report beyond the chain size.
func chainReport(x *core.Expanded) SolveReport {
	return report(core.Stats{States: x.NumStates(), NNZ: x.NNZ()})
}

// answer converts a core result into the facade's distribution and the
// report of the solve that produced it.
func answer(res *core.Result) (*Distribution, SolveReport) {
	return &Distribution{
		Times:       res.Times,
		EmptyProb:   res.EmptyProb,
		States:      res.States,
		Transitions: res.NNZ,
		Iterations:  res.Iterations,
	}, report(res.Stats)
}

// memoEntry pairs a memoised analysis result with the SolveReport of
// the solve that produced it, so a memo hit can replay the statistics.
type memoEntry struct {
	val any
	rep SolveReport
}

// recall looks a result up in the memo.
func (s *Solver) recall(key resultKey) (memoEntry, bool) {
	v, ok := s.results.Get(key)
	if !ok {
		return memoEntry{}, false
	}
	return v.(memoEntry), true
}

// remember memoises a result with the report of its solve, which
// carries no durations: they are per call.
func (s *Solver) remember(key resultKey, val any, rep SolveReport) {
	s.results.Put(key, memoEntry{val: val, rep: rep})
}

// model is the expanded CTMC an analysis runs on, as the result memo
// and the SolveReport see it.
type model struct {
	x   *core.Expanded
	key engine.Key
	// hit reports whether the engine cache served the model; build is
	// the time spent obtaining it, measured only when a Report is
	// requested so the warm path stays clock-free.
	hit   bool
	build time.Duration
}

// memoised runs one analysis of the given kind on m through the result
// memo, once for each query (a time grid, or nil) and returns the
// answers in query order. The memo answers what it holds; solve
// runs once, under one "solver.solve" span, on the queries that missed,
// in order, and returns an answer and a report for each, which are
// memoised together. Memo hits are counted only once the call has
// succeeded, so a caller that retries a failed call query by query
// (Sweep) counts each hit once.
//
// opts.Report, when non-nil, is filled for queries[0], the only query of
// every caller that asks for one. A hit replays the report of the solve
// that produced the answer, with ResultMemoHit set, this call's cache
// outcome and a zero SolveDuration (no iterations ran). copyOut, when
// non-nil, copies an answer on its way into and out of the memo, so no
// caller holds a memoised one.
func memoised[T any](s *Solver, kind uint8, m model, queries [][]float64, opts AnalysisOptions,
	solve func(ctx context.Context, missed [][]float64) ([]T, []SolveReport, error), copyOut func(T) T) ([]T, error) {
	if copyOut == nil {
		copyOut = func(v T) T { return v }
	}
	// A Progress callback opts out of the memo: a memoised answer
	// performs no iterations, so replaying progress would be a lie.
	memoable := opts.Progress == nil
	out := make([]T, len(queries))
	var (
		keys   []resultKey
		missed [][]float64
		at     []int // query position of each miss
		hits   int64
		first  SolveReport // the report of queries[0]
	)
	for k, q := range queries {
		var key resultKey
		if memoable {
			key = memoKey(kind, m.key, q, opts)
			if entry, ok := s.recall(key); ok {
				hits++
				out[k] = copyOut(entry.val.(T))
				if k == 0 {
					first = entry.rep
					first.ResultMemoHit = true
				}
				continue
			}
		}
		keys, missed, at = append(keys, key), append(missed, q), append(at, k)
	}
	if len(missed) > 0 {
		var (
			start time.Time
			vals  []T
			reps  []SolveReport
		)
		if opts.Report != nil {
			start = time.Now()
		}
		if err := s.traced(opts.Context, analyses[kind], func(ctx context.Context) (err error) {
			vals, reps, err = solve(ctx, missed)
			return err
		}); err != nil {
			return nil, wrapErr(err)
		}
		if at[0] == 0 {
			first = reps[0]
			if opts.Report != nil {
				first.SolveDuration = time.Since(start)
			}
		}
		for i, k := range at {
			out[k] = vals[i]
			if memoable {
				s.remember(keys[i], copyOut(vals[i]), reps[i])
			}
		}
	}
	s.memoHits.Add(hits)
	if opts.Report != nil {
		first.ModelCacheHit, first.BuildDuration = m.hit, m.build
		*opts.Report = first
	}
	return out, nil
}

// only returns the one answer of a single-query call.
func only[T any](answers []T, err error) (T, error) {
	if err != nil {
		var zero T
		return zero, err
	}
	return answers[0], nil
}

// fingerprint is engine.Fingerprint, the one place the solver hashes a
// model; it is a variable so tests can count the hashes.
var fingerprint = engine.Fingerprint

// expanded validates the (battery, workload, delta) triple and returns
// the — possibly cached — expanded CTMC. key, when non-nil, is the
// model's fingerprint, which the caller has already computed.
func (s *Solver) expanded(b Battery, w *Workload, opts AnalysisOptions, key *engine.Key) (model, error) {
	if w == nil {
		return model{}, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if opts.Delta <= 0 || math.IsNaN(opts.Delta) {
		return model{}, fmt.Errorf("%w: discretisation step Delta %v (set AnalysisOptions.Delta to a positive divisor of the well capacities)",
			ErrBadArgument, opts.Delta)
	}
	km := w.kibamrm(b)
	var m model
	if key != nil {
		m.key = *key
	} else {
		m.key = fingerprint(km, opts.Delta, core.Options{})
	}
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	// Context rides along for span parenting only; it is not part of the
	// fingerprint, so cache identity is unchanged.
	x, hit, err := s.eng.Expanded(opts.Context, m.key, km, opts.Delta)
	if err != nil {
		return model{}, wrapErr(err)
	}
	if opts.Report != nil {
		m.build = time.Since(start)
	}
	m.x, m.hit = x, hit
	return m, nil
}

// LifetimeDistribution runs the paper's Markovian approximation: the
// battery's charge space is discretised with step opts.Delta
// (ampere-seconds; it must divide both well capacities) and the
// lifetime CDF is evaluated at the given times (seconds, ascending),
// reusing the cached expanded CTMC for (battery, workload, opts.Delta)
// when one exists. Smaller deltas are more accurate and more expensive
// — cost grows with Δ^-2 per step and Δ^-3 overall once the
// uniformisation rate is dominated by consumption.
func (s *Solver) LifetimeDistribution(b Battery, w *Workload, times []float64, opts AnalysisOptions) (*Distribution, error) {
	s.solves.Inc()
	return only(s.lifetimeCDFs(b, w, [][]float64{times}, opts, s.eng.Pool(), nil))
}

// lifetimeCDFs computes the lifetime CDF on each of the time grids
// against one (battery, workload, Δ) model on the given SpMV pool; key,
// when non-nil, is the model's fingerprint (see expanded). The grids the
// memo does not hold are solved as one transient over the union of
// their time points (core.LifetimeCDFBatchOpts): the chain is swept once
// out to the largest horizon, and each grid's answer is bit-identical to
// a solve of that grid alone. An error is the group's as a whole (a
// union past MaxIterations fails although its shorter grids would pass);
// Sweep retries a failed group one grid at a time for exact errors.
func (s *Solver) lifetimeCDFs(b Battery, w *Workload, grids [][]float64, opts AnalysisOptions, pool *sparse.Pool, key *engine.Key) ([]*Distribution, error) {
	m, err := s.expanded(b, w, opts, key)
	if err != nil {
		return nil, err
	}
	return memoised(s, kindCDF, m, grids, opts, func(ctx context.Context, missed [][]float64) ([]*Distribution, []SolveReport, error) {
		ress, err := m.x.LifetimeCDFBatchOpts(missed, s.solveOptions(ctx, opts, pool))
		if err != nil {
			return nil, nil, err
		}
		ds, reps := make([]*Distribution, len(ress)), make([]SolveReport, len(ress))
		for i, res := range ress {
			ds[i], reps[i] = answer(res)
		}
		return ds, reps, nil
	}, (*Distribution).clone)
}

// phasedKey folds the per-phase model keys and durations into one
// composite model identity for the result memo.
func phasedKey(keys []engine.Key, durations []float64) engine.Key {
	h := sha256.New()
	var buf [8]byte
	for i, k := range keys {
		h.Write(k[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(durations[i]))
		h.Write(buf[:])
	}
	var out engine.Key
	h.Sum(out[:0])
	return out
}

// PhasedLifetimeDistribution computes the lifetime CDF for a scenario
// that switches workloads at fixed instants — for example a light
// night-time profile followed by a heavy daytime one. All phases run on
// the same battery, are discretised with opts.Delta, and must have the
// same number of workload states. Each phase's expanded CTMC is served
// by the solver's model cache together with its uniformised operator (a
// day/night schedule over two workloads expands each exactly once,
// however many queries follow), and whole results are memoised like
// every other analysis. The report's Iterations and SpMVs sum over the
// phases; its Fox–Glynn window is left unset (see SolveReport).
func (s *Solver) PhasedLifetimeDistribution(b Battery, phases []WorkloadPhase, times []float64, opts AnalysisOptions) (*Distribution, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrBadArgument)
	}
	s.solves.Inc()
	xs := make([]*core.Expanded, len(phases))
	keys := make([]engine.Key, len(phases))
	durations := make([]float64, len(phases))
	all := model{hit: true}
	for i, ph := range phases {
		if d := ph.DurationSeconds; d <= 0 && !math.IsInf(d, 1) {
			return nil, fmt.Errorf("%w: phase %d duration %v", ErrBadArgument, i, d)
		}
		m, err := s.expanded(b, ph.Workload, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", i, err)
		}
		xs[i], keys[i], durations[i] = m.x, m.key, ph.DurationSeconds
		all.hit = all.hit && m.hit
		all.build += m.build
	}
	all.key = phasedKey(keys, durations)
	return only(memoised(s, kindPhased, all, [][]float64{times}, opts, func(ctx context.Context, _ [][]float64) ([]*Distribution, []SolveReport, error) {
		res, err := core.PhasedLifetimeCDFExpanded(xs, durations, times, s.solveOptions(ctx, opts, s.eng.Pool()))
		if err != nil {
			return nil, nil, err
		}
		d, rep := answer(res)
		return []*Distribution{d}, []SolveReport{rep}, nil
	}, (*Distribution).clone))
}

// ExpectedLifetime returns E[L], the mean battery lifetime in seconds,
// computed on the Markovian approximation's expanded chain by solving
// the absorption-time equations directly (no time grid needed). The
// same grid-step trade-off as LifetimeDistribution applies: the value
// converges to the true mean as opts.Delta shrinks, approaching from
// below. Context is checked between the solve's block sweeps, and its
// error is returned wrapped. Epsilon, MaxIterations and Progress do not
// apply to the solve and are ignored.
func (s *Solver) ExpectedLifetime(b Battery, w *Workload, opts AnalysisOptions) (float64, error) {
	s.solves.Inc()
	m, err := s.expanded(b, w, opts, nil)
	if err != nil {
		return 0, err
	}
	// The mean has no query: its one memo key is the model's.
	return only(memoised(s, kindMean, m, [][]float64{nil}, opts, func(ctx context.Context, _ [][]float64) ([]float64, []SolveReport, error) {
		if ctx == nil {
			ctx = context.Background()
		}
		mean, err := m.x.MeanLifetime(ctx)
		return []float64{mean}, []SolveReport{chainReport(m.x)}, err
	}, nil))
}

// StrandedCharge computes the stranded-charge summary for the battery
// under the workload: the expected bound charge left at the moment the
// battery empties, solved on the expanded chain as an expected
// absorption reward (no time horizon needed). Context is checked between
// the solve's block sweeps, and its error is returned wrapped. Epsilon,
// MaxIterations and Progress do not apply to the solve and are ignored.
func (s *Solver) StrandedCharge(b Battery, w *Workload, opts AnalysisOptions) (*StrandedCharge, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if b.AvailableFraction >= 1 {
		return &StrandedCharge{}, nil // no bound well, nothing to strand
	}
	s.solves.Inc()
	m, err := s.expanded(b, w, opts, nil)
	if err != nil {
		return nil, err
	}
	mean, err := only(memoised(s, kindStranded, m, [][]float64{nil}, opts, func(ctx context.Context, _ [][]float64) ([]float64, []SolveReport, error) {
		if ctx == nil {
			ctx = context.Background()
		}
		mean, err := m.x.StrandedCharge(ctx)
		return []float64{mean}, []SolveReport{chainReport(m.x)}, err
	}, nil))
	if err != nil {
		return nil, err
	}
	return &StrandedCharge{MeanAs: mean, FractionOfBound: mean / ((1 - b.AvailableFraction) * b.CapacityAs)}, nil
}

// ExactCDF computes the exact lifetime CDF Pr{battery empty at t} for
// a battery with all charge available (AvailableFraction = 1, where the
// battery empties exactly when the accumulated energy reaches the
// capacity) under the stochastic workload. It evaluates the
// performability distribution of the accumulated-energy Markov reward
// model through the transform domain, accurate to roughly 1e-8. For
// two-well batteries (AvailableFraction < 1) there is no exact method;
// use LifetimeDistribution with a small delta instead.
//
// The Distribution's States, Transitions and Iterations reflect the
// workload chain and the number of transform evaluations, making the
// exact path interchangeable with the approximate ones downstream.
// Delta, Epsilon, MaxIterations and Progress are ignored (the transform
// needs no grid, no truncation and no iteration budget, and reports no
// step-wise progress); Context cancels between time points.
func (s *Solver) ExactCDF(b Battery, w *Workload, times []float64, opts AnalysisOptions) (*Distribution, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	//numlint:ignore floatcmp AvailableFraction = 1 is an exact configuration sentinel, not a computed value
	if b.AvailableFraction != 1 {
		return nil, fmt.Errorf("%w: exact solution requires AvailableFraction = 1, got %v",
			ErrBadArgument, b.AvailableFraction)
	}
	s.solves.Inc()
	// The exact path expands no CTMC; key on the workload chain and the
	// capacity via the KiBaMRM fingerprint at a dummy Δ.
	m := model{key: fingerprint(w.kibamrm(b), 1, core.Options{})}
	return only(memoised(s, kindExact, m, [][]float64{times}, opts, func(ctx context.Context, _ [][]float64) ([]*Distribution, []SolveReport, error) {
		cr := mrm.ConstantReward{Chain: w.model.Chain, Rates: w.model.Currents, Initial: w.model.Initial}
		probs, stats, err := performability.EnergyDepletionCDFStats(cr, b.CapacityAs, times, ctx)
		if err != nil {
			return nil, nil, err
		}
		// Iterations here counts transform evaluations.
		d, rep := answer(&core.Result{
			Times:     append([]float64(nil), times...),
			EmptyProb: probs,
			Stats:     core.Stats{States: stats.States, NNZ: stats.Transitions, Iterations: stats.TransformEvals},
		})
		return []*Distribution{d}, []SolveReport{rep}, nil
	}, (*Distribution).clone))
}

// Scenario is one cell of a Sweep grid: a battery/workload pair, the
// discretisation step, and the evaluation time grid. Scenarios may vary
// any of these — Δ refinements, state currents (via distinct
// workloads), AvailableFraction, initial capacity, time grids.
type Scenario struct {
	// Name labels the scenario in results; purely descriptive.
	Name string
	// Battery and Workload define the model.
	Battery  Battery
	Workload *Workload
	// DeltaAs is the discretisation step in ampere-seconds.
	DeltaAs float64
	// Times are the evaluation points in seconds, ascending.
	Times []float64
}

// SweepResult is the outcome of one scenario, in input order.
type SweepResult struct {
	// Index and Name echo the scenario's position and label.
	Index int
	Name  string
	// Distribution is the computed lifetime CDF; nil when Err is set.
	Distribution *Distribution
	// Err is the per-scenario failure, if any. Scenario errors do not
	// abort the sweep; a cancelled context does, marking unprocessed
	// scenarios with the context error.
	Err error
}

// SweepOptions tunes a Sweep.
type SweepOptions struct {
	// Workers bounds how many scenarios are solved concurrently;
	// values < 1 select runtime.NumCPU(). The sweep's SpMV pool is
	// sized NumCPU / Workers (after Workers is capped at the number of
	// model groups), so a large solve borrows a second strand only when
	// that is 2 or more.
	Workers int
	// Epsilon, MaxIterations and Context apply to every scenario, as in
	// AnalysisOptions.
	Epsilon       float64
	MaxIterations int
	Context       context.Context
	// Progress, when non-nil, is invoked after each scenario completes
	// with (done, total). Calls are serialised.
	Progress func(done, total int)
}

// sweepGroup is the scenario indexes that share one expanded CTMC, and
// that model's fingerprint; keyed is false for a scenario that cannot be
// fingerprinted.
type sweepGroup struct {
	idx   []int
	key   engine.Key
	keyed bool
}

// sweepGroups partitions scenario indexes by expanded-model identity
// (the engine fingerprint over battery, workload and Δ): scenarios in
// one group share an expanded CTMC and are solved as one union-grid
// transient, under the key computed here, so each scenario's model is
// hashed once. Scenarios that cannot be fingerprinted (nil workload,
// non-positive Δ) become singleton groups so the solo path reports
// their errors exactly. Group order follows first appearance,
// and indexes within a group stay in input order.
func sweepGroups(scenarios []Scenario) []sweepGroup {
	groups := make([]sweepGroup, 0, len(scenarios))
	at := make(map[engine.Key]int, len(scenarios))
	for i, sc := range scenarios {
		if sc.Workload == nil || !(sc.DeltaAs > 0) {
			groups = append(groups, sweepGroup{idx: []int{i}})
			continue
		}
		key := fingerprint(sc.Workload.kibamrm(sc.Battery), sc.DeltaAs, core.Options{})
		if g, dup := at[key]; dup {
			groups[g].idx = append(groups[g].idx, i)
			continue
		}
		at[key] = len(groups)
		groups = append(groups, sweepGroup{idx: []int{i}, key: key, keyed: true})
	}
	return groups
}

// Sweep evaluates a grid of scenarios in parallel over a bounded worker
// pool, reusing the solver's model cache across scenarios (a Δ-sweep
// over one model expands each distinct grid once, and repeated cells
// not at all). Scenarios that share one expanded CTMC — same battery,
// workload and Δ, differing only in time grids — are additionally
// solved as one transient over the union of their time grids, so the
// group costs one uniformisation sweep out to its largest horizon.
// Results are returned in input order and are bit-identical to solving
// each scenario sequentially. The returned error is non-nil only for
// empty input or a cancelled context; per-scenario failures land in
// SweepResult.Err.
func (s *Solver) Sweep(scenarios []Scenario, opts SweepOptions) ([]SweepResult, error) {
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("%w: no scenarios", ErrBadArgument)
	}
	groups := sweepGroups(scenarios)
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	// One SpMV pool shared by all sweep workers, of NumCPU / workers:
	// with 2 or more, one large solve at a time may borrow the pool's
	// one worker as its second strand, so scenario- and solve-level
	// parallelism together stay near NumCPU. The worker, if it started,
	// is released when the sweep returns.
	spmv := runtime.NumCPU() / workers
	if spmv < 1 {
		spmv = 1
	}
	pool := sparse.NewPoolObs(spmv, s.obs)
	defer pool.Close()
	ctx := opts.Context

	// With telemetry, each group enqueue is timestamped just before the
	// channel send; the channel's happens-before edge makes the
	// worker-side read race-free, and the difference is the queue wait,
	// observed once per scenario in the group.
	var (
		enqueued  []time.Time
		queueWait *obs.Histogram
	)
	if s.obs != nil {
		enqueued = make([]time.Time, len(groups))
		queueWait = s.obs.Histogram("sweep_queue_wait_seconds")
		s.obs.Counter("sweep_scenarios_total").Add(int64(len(scenarios)))
	}

	results := make([]SweepResult, len(scenarios))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range jobs {
				group := groups[gi].idx
				var key *engine.Key
				if groups[gi].keyed {
					key = &groups[gi].key
				}
				// Per-scenario spans parent from the sweep caller's
				// context (so daemon sweeps nest under their request
				// trace); solo solves run under their scenario's span.
				spans := make([]*obs.Span, len(group))
				scCtxs := make([]context.Context, len(group))
				for j, idx := range group {
					scCtxs[j] = ctx
					if s.obs != nil {
						queueWait.ObserveDuration(time.Since(enqueued[gi]).Seconds())
						scCtxs[j], spans[j] = obs.StartSpan(ctx, s.obs, "sweep.scenario",
							obs.Int("index", int64(idx)),
							obs.String("name", scenarios[idx].Name),
							obs.Float("delta", scenarios[idx].DeltaAs))
					}
				}
				cancelled := ctx != nil && ctx.Err() != nil
				first := scenarios[group[0]]
				solve := func(sctx context.Context, grids [][]float64) ([]*Distribution, error) {
					return s.lifetimeCDFs(first.Battery, first.Workload, grids, AnalysisOptions{
						Delta:         first.DeltaAs,
						Epsilon:       opts.Epsilon,
						MaxIterations: opts.MaxIterations,
						Context:       sctx,
					}, pool, key)
				}
				var (
					dists    []*Distribution
					groupErr error
				)
				if !cancelled {
					s.solves.Add(int64(len(group)))
					grids := make([][]float64, len(group))
					for j, idx := range group {
						grids[j] = scenarios[idx].Times
					}
					// A lone scenario solves under its own span.
					gctx := ctx
					if len(group) == 1 {
						gctx = scCtxs[0]
					}
					dists, groupErr = solve(gctx, grids)
				}
				for j, idx := range group {
					sc := scenarios[idx]
					r := SweepResult{Index: idx, Name: sc.Name}
					switch {
					case cancelled:
						r.Err = ctx.Err()
					case groupErr == nil:
						r.Distribution = dists[j]
					case len(group) == 1:
						r.Err = groupErr
					default:
						// A group error has no per-grid attribution, so
						// each grid is retried alone for its exact answer
						// or error.
						r.Distribution, r.Err = only(solve(scCtxs[j], [][]float64{sc.Times}))
					}
					span := spans[j]
					switch {
					case r.Err != nil:
						span.End(obs.String("error", r.Err.Error()))
					case r.Distribution != nil:
						span.End(obs.Int("states", int64(r.Distribution.States)),
							obs.Int("iterations", int64(r.Distribution.Iterations)))
					default:
						span.End()
					}
					results[idx] = r
					mu.Lock()
					done++
					if opts.Progress != nil {
						opts.Progress(done, len(scenarios))
					}
					mu.Unlock()
				}
			}
		}()
	}
	for gi := range groups {
		if enqueued != nil {
			enqueued[gi] = time.Now()
		}
		jobs <- gi
	}
	close(jobs)
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return results, fmt.Errorf("batlife: sweep: %w", ctx.Err())
	}
	return results, nil
}
