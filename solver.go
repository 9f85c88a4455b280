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
	// Workers sets the SpMV parallelism of the solver's shared worker
	// pool; values < 1 select runtime.NumCPU().
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
//
// The free functions LifetimeDistribution, PhasedLifetimeDistribution,
// ExpectedLifetime, ExpectedStrandedCharge and ExactLifetimeCDF are
// thin deprecated wrappers over a process-wide default Solver (see
// DefaultSolver).
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

// Close releases the solver's persistent SpMV worker goroutines. The
// solver stays usable afterwards — later analyses run their products
// serially — so Close is a resource release for callers that are done
// with parallel solving, not a shutdown. Idempotent and safe to call
// concurrently with in-flight solves (they finish normally).
func (s *Solver) Close() { s.eng.Close() }

var defaultSolver = sync.OnceValue(func() *Solver {
	// The deprecated free functions previously built and discarded one
	// expanded model per call; a small model cache keeps their memory
	// footprint modest while still serving repeated-query workloads.
	return NewSolver(SolverOptions{ModelCacheCapacity: 2})
})

// DefaultSolver returns the process-wide Solver that backs the
// deprecated free functions. Use a dedicated NewSolver to size caches
// for heavy workloads.
func DefaultSolver() *Solver { return defaultSolver() }

// CachedModels reports how many expanded CTMCs the solver currently
// retains — an observability hook for cache sizing.
func (s *Solver) CachedModels() int { return s.eng.CachedModels() }

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
	query   [sha256.Size]byte // hash of times / horizon
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

// memoKey builds the result-cache key for a query. The second result
// reports whether memoisation applies (a Progress callback opts out).
// The mean and exact analyses read neither Epsilon nor MaxIterations,
// so their keys leave both out.
func memoKey(kind uint8, model engine.Key, query []float64, opts AnalysisOptions) (resultKey, bool) {
	if opts.Progress != nil {
		return resultKey{}, false
	}
	key := resultKey{model: model, query: hashFloats(query), kind: kind}
	if kind != kindMean && kind != kindExact {
		key.epsBits, key.maxIter = math.Float64bits(opts.Epsilon), opts.MaxIterations
	}
	return key, true
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

// remember memoises a result with the report of its solve. Durations
// are per call, so the memo keeps only the solve's statistics.
func (s *Solver) remember(key resultKey, val any, rep SolveReport) {
	rep.BuildDuration, rep.SolveDuration = 0, 0
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
// memo. A hit returns the memoised answer and replays the report of the
// solve that produced it, with ResultMemoHit set, this call's cache
// outcome and a zero SolveDuration (no iterations ran). A miss runs
// solve under a "solver.solve" span, fills opts.Report, and memoises the
// answer with its report. copyOut, when non-nil, copies an answer on its
// way into and out of the memo, so no caller holds a memoised one.
func memoised[T any](s *Solver, kind uint8, m model, query []float64, opts AnalysisOptions,
	solve func(context.Context) (T, SolveReport, error), copyOut func(T) T) (out T, err error) {
	if copyOut == nil {
		copyOut = func(v T) T { return v }
	}
	key, memoable := memoKey(kind, m.key, query, opts)
	if memoable {
		if entry, ok := s.recall(key); ok {
			s.memoHits.Inc()
			if opts.Report != nil {
				rep := entry.rep
				rep.ResultMemoHit, rep.ModelCacheHit, rep.BuildDuration = true, m.hit, m.build
				*opts.Report = rep
			}
			return copyOut(entry.val.(T)), nil
		}
	}
	var (
		start time.Time
		rep   SolveReport
	)
	if opts.Report != nil {
		start = time.Now()
	}
	err = s.traced(opts.Context, analyses[kind], func(ctx context.Context) (err error) {
		out, rep, err = solve(ctx)
		return err
	})
	if err != nil {
		var zero T
		return zero, wrapErr(err)
	}
	rep.ModelCacheHit = m.hit
	if opts.Report != nil {
		rep.BuildDuration, rep.SolveDuration = m.build, time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		s.remember(key, copyOut(out), rep)
	}
	return out, nil
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
	x, hit, err := s.eng.Expanded(m.key, km, opts.Delta, core.Options{Context: opts.Context})
	if err != nil {
		return model{}, wrapErr(err)
	}
	if opts.Report != nil {
		m.build = time.Since(start)
	}
	m.x, m.hit = x, hit
	return m, nil
}

// LifetimeDistribution computes the paper's Markovian approximation of
// the lifetime CDF at the given times (seconds, ascending), reusing the
// cached expanded CTMC for (battery, workload, opts.Delta) when one
// exists. See the package-level LifetimeDistribution for the numerical
// trade-offs of the Δ grid.
func (s *Solver) LifetimeDistribution(b Battery, w *Workload, times []float64, opts AnalysisOptions) (*Distribution, error) {
	return s.lifetimeDistribution(b, w, times, opts, s.eng.Pool(), nil)
}

// lifetimeDistribution is LifetimeDistribution on the given SpMV pool;
// key, when non-nil, is the model's fingerprint (see expanded).
func (s *Solver) lifetimeDistribution(b Battery, w *Workload, times []float64, opts AnalysisOptions, pool *sparse.Pool, key *engine.Key) (*Distribution, error) {
	s.solves.Inc()
	m, err := s.expanded(b, w, opts, key)
	if err != nil {
		return nil, err
	}
	return memoised(s, kindCDF, m, times, opts, func(ctx context.Context) (*Distribution, SolveReport, error) {
		res, err := m.x.LifetimeCDFOpts(times, s.solveOptions(ctx, opts, pool))
		if err != nil {
			return nil, SolveReport{}, err
		}
		d, rep := answer(res)
		return d, rep, nil
	}, (*Distribution).clone)
}

// lifetimeDistributionBatch solves the lifetime CDF for several time
// grids against one (battery, workload, Δ) model as one union-grid
// transient (core.LifetimeCDFBatchOpts), after answering what it can
// from the result memo: the grids' time points are merged, the chain is
// swept once out to the largest horizon, and each grid's values are
// scattered back. Each returned distribution is bit-identical to a solo
// LifetimeDistribution call.
//
// On any failure it returns nil without touching the solve counters or
// the memo: a group error has no per-grid attribution (a union that
// exceeds MaxIterations fails although its shorter grids would pass),
// so the caller (Sweep) falls back to solo solves, which re-run the
// counting and report exact per-scenario errors.
func (s *Solver) lifetimeDistributionBatch(b Battery, w *Workload, grids [][]float64, opts AnalysisOptions, pool *sparse.Pool, key *engine.Key) []*Distribution {
	m, err := s.expanded(b, w, opts, key)
	if err != nil {
		return nil
	}
	dists := make([]*Distribution, len(grids))
	var (
		missKeys  []resultKey
		missGrids [][]float64
		missAt    []int // batch position of each miss
		memoHits  int64
	)
	for k, grid := range grids {
		key, _ := memoKey(kindCDF, m.key, grid, opts) // Sweep sets no Progress: always memoable
		if entry, ok := s.recall(key); ok {
			memoHits++
			dists[k] = entry.val.(*Distribution).clone()
			continue
		}
		missKeys = append(missKeys, key)
		missGrids = append(missGrids, grid)
		missAt = append(missAt, k)
	}
	if len(missGrids) > 0 {
		var ress []*core.Result
		if err := s.traced(opts.Context, "cdf_batch", func(ctx context.Context) (err error) {
			ress, err = m.x.LifetimeCDFBatchOpts(missGrids, s.solveOptions(ctx, opts, pool))
			return err
		}); err != nil {
			return nil
		}
		for i, res := range ress {
			d, rep := answer(res)
			rep.ModelCacheHit = m.hit
			s.remember(missKeys[i], d.clone(), rep)
			dists[missAt[i]] = d
		}
	}
	// Counters commit only once the whole group is known good, so the
	// solo fallback after a failed solve does not double-count.
	s.solves.Add(int64(len(grids)))
	s.memoHits.Add(memoHits)
	return dists
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
	return memoised(s, kindPhased, all, times, opts, func(ctx context.Context) (*Distribution, SolveReport, error) {
		res, err := core.PhasedLifetimeCDFExpanded(xs, durations, times, s.solveOptions(ctx, opts, s.eng.Pool()))
		if err != nil {
			return nil, SolveReport{}, err
		}
		d, rep := answer(res)
		return d, rep, nil
	}, (*Distribution).clone)
}

// ExpectedLifetime computes E[L] on the expanded chain by solving the
// absorption-time equations (no time grid needed); see the package
// function of the same name. Context is checked between the solve's
// block sweeps, and its error is returned wrapped. Epsilon,
// MaxIterations and Progress do not apply to the solve and are ignored.
func (s *Solver) ExpectedLifetime(b Battery, w *Workload, opts AnalysisOptions) (float64, error) {
	s.solves.Inc()
	m, err := s.expanded(b, w, opts, nil)
	if err != nil {
		return 0, err
	}
	return memoised(s, kindMean, m, nil, opts, func(ctx context.Context) (float64, SolveReport, error) {
		if ctx == nil {
			ctx = context.Background()
		}
		mean, err := m.x.MeanLifetime(ctx)
		// The mean solve is a block linear solve: no uniformisation
		// statistics to report beyond the chain size.
		return mean, report(core.Stats{States: m.x.NumStates(), NNZ: m.x.NNZ()}), err
	}, nil)
}

// StrandedCharge computes the stranded-charge summary at a horizon far
// past the lifetime's upper tail; see ExpectedStrandedCharge for the
// measure's semantics. The horizon must leave at least 99% of the
// probability mass depleted, or an error matching ErrBadArgument is
// returned.
func (s *Solver) StrandedCharge(b Battery, w *Workload, horizonSeconds float64, opts AnalysisOptions) (*StrandedCharge, error) {
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
	sc, err := memoised(s, kindStranded, m, []float64{horizonSeconds}, opts, func(ctx context.Context) (StrandedCharge, SolveReport, error) {
		wc, err := m.x.WastedChargeDistributionOpts(horizonSeconds, s.solveOptions(ctx, opts, s.eng.Pool()))
		if err != nil {
			return StrandedCharge{}, SolveReport{}, err
		}
		if wc.AbsorbedMass < 0.99 {
			return StrandedCharge{}, SolveReport{}, fmt.Errorf("%w: only %.1f%% of runs depleted by the horizon; increase horizonSeconds",
				ErrBadArgument, 100*wc.AbsorbedMass)
		}
		bound := (1 - b.AvailableFraction) * b.CapacityAs
		return StrandedCharge{MeanAs: wc.Mean(), FractionOfBound: wc.Mean() / bound}, report(wc.Stats), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return &sc, nil
}

// ExactCDF computes the exact lifetime CDF for a battery with all
// charge available (AvailableFraction = 1) via the performability
// transform — the same quantity as the deprecated ExactLifetimeCDF, but
// returned as a *Distribution whose States, Transitions and Iterations
// reflect the workload chain and the number of transform evaluations,
// making the exact path interchangeable with the approximate ones
// downstream. Delta, Epsilon, MaxIterations and Progress are ignored
// (the transform needs no grid, no truncation and no iteration budget,
// and reports no step-wise progress); Context cancels between time
// points.
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
	return memoised(s, kindExact, m, times, opts, func(ctx context.Context) (*Distribution, SolveReport, error) {
		cr := mrm.ConstantReward{Chain: w.model.Chain, Rates: w.model.Currents, Initial: w.model.Initial}
		probs, stats, err := performability.EnergyDepletionCDFStats(cr, b.CapacityAs, times, ctx)
		if err != nil {
			return nil, SolveReport{}, err
		}
		// Iterations here counts transform evaluations.
		d, rep := answer(&core.Result{
			Times:     append([]float64(nil), times...),
			EmptyProb: probs,
			Stats:     core.Stats{States: stats.States, NNZ: stats.Transitions, Iterations: stats.TransformEvals},
		})
		return d, rep, nil
	}, (*Distribution).clone)
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
	// values < 1 select runtime.NumCPU(). The SpMV parallelism inside
	// each solve is scaled down so that scenario-level and matrix-level
	// parallelism together stay near NumCPU.
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
	// One SpMV pool shared by all sweep workers: splitting the cores
	// between scenario- and matrix-parallelism keeps the goroutine count
	// near NumCPU instead of workers × NumCPU. The pool's persistent
	// workers are released when the sweep returns.
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
				var batched []*Distribution
				if !cancelled && len(group) > 1 {
					first := scenarios[group[0]]
					grids := make([][]float64, len(group))
					for j, idx := range group {
						grids[j] = scenarios[idx].Times
					}
					batched = s.lifetimeDistributionBatch(first.Battery, first.Workload, grids, AnalysisOptions{
						Delta:         first.DeltaAs,
						Epsilon:       opts.Epsilon,
						MaxIterations: opts.MaxIterations,
						Context:       ctx,
					}, pool, key)
				}
				for j, idx := range group {
					sc := scenarios[idx]
					r := SweepResult{Index: idx, Name: sc.Name}
					switch {
					case cancelled:
						r.Err = ctx.Err()
					case batched != nil:
						r.Distribution = batched[j]
					default:
						r.Distribution, r.Err = s.lifetimeDistribution(sc.Battery, sc.Workload, sc.Times, AnalysisOptions{
							Delta:         sc.DeltaAs,
							Epsilon:       opts.Epsilon,
							MaxIterations: opts.MaxIterations,
							Context:       scCtxs[j],
						}, pool, key)
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
