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
	// matrix-vector products (equal for a full solve).
	Iterations, SpMVs int
	// FoxGlynnLeft and FoxGlynnRight delimit the Poisson truncation
	// window the transient solve committed to — with Iterations, the
	// cost drivers of uniformisation on large chains.
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
	// analyses (LifetimeDistribution, ExpectedLifetime, StrandedCharge);
	// ignored by ExactCDF, which needs no grid.
	Delta float64
	// Epsilon bounds the truncated Poisson tail mass of the transient
	// solve; zero selects 1e-12.
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
// entirely. All methods are safe for concurrent use; Sweep evaluates
// whole scenario grids in parallel on top of the shared cache.
//
// The free functions LifetimeDistribution, ExpectedLifetime,
// ExpectedStrandedCharge and ExactLifetimeCDF are thin deprecated
// wrappers over a process-wide default Solver (see DefaultSolver).
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

// analysis kinds for result memoisation.
const (
	kindCDF = iota + 1
	kindMean
	kindStranded
	kindExact
	kindPhased
)

// resultKey identifies one memoised analysis result.
type resultKey struct {
	model    engine.Key
	query    [sha256.Size]byte // hash of times / horizon
	kind     uint8
	epsBits  uint64
	maxIter  int
	capBits  uint64 // ExactCDF: capacity (its model key has no grid)
	exactCDF bool
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
func memoKey(kind uint8, model engine.Key, query []float64, opts AnalysisOptions) (resultKey, bool) {
	if opts.Progress != nil {
		return resultKey{}, false
	}
	return resultKey{
		model:   model,
		query:   hashFloats(query),
		kind:    kind,
		epsBits: math.Float64bits(opts.Epsilon),
		maxIter: opts.MaxIterations,
	}, true
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
// failures (bad grid step, malformed model, bad query ranges) become
// errors.Is-matchable against ErrBadArgument, iteration-budget refusals
// against ErrIterationLimit, and everything else keeps the "batlife:"
// prefix with the cause chain intact (so context.Canceled and friends
// still match through it).
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBadArgument) || errors.Is(err, ErrIterationLimit) {
		return err
	}
	if errors.Is(err, core.ErrBadGrid) || errors.Is(err, mrm.ErrBadModel) ||
		errors.Is(err, core.ErrPhaseMismatch) ||
		errors.Is(err, ctmc.ErrBadInput) || errors.Is(err, performability.ErrBadQuery) {
		return fmt.Errorf("%w: %w", ErrBadArgument, err)
	}
	if errors.Is(err, ctmc.ErrIterationBudget) {
		return fmt.Errorf("%w: %w", ErrIterationLimit, err)
	}
	return fmt.Errorf("batlife: %w", err)
}

// solveSpan begins the facade-level "solver.solve" span for one
// analysis, returning the context the rest of the solve should run
// under so the engine/core/ctmc stage spans nest beneath it. When
// tracing is off (no registry and no span in ctx) it returns (ctx, nil)
// without building the attribute slice, keeping the disabled path
// allocation-free. Callers start it only after a result-memo miss:
// a memo hit is a sub-microsecond lookup already covered by the
// request-level span, and recording it would put span allocation on
// the solver's hottest path (BenchmarkTraceOverhead pins the warm-path
// overhead).
func (s *Solver) solveSpan(ctx context.Context, analysis string) (context.Context, *obs.Span) {
	if s.obs == nil && obs.SpanFromContext(ctx) == nil {
		return ctx, nil
	}
	return obs.StartSpan(ctx, s.obs, "solver.solve", obs.String("analysis", analysis))
}

// endSolveSpan completes a facade span, recording the failure if any.
func endSolveSpan(span *obs.Span, err error) {
	if span == nil {
		return
	}
	if err != nil {
		span.End(obs.String("error", err.Error()))
		return
	}
	span.End()
}

// solveOptions translates facade options into core solve options.
func (s *Solver) solveOptions(opts AnalysisOptions, pool *sparse.Pool) core.SolveOptions {
	return core.SolveOptions{
		Epsilon:       opts.Epsilon,
		Pool:          pool,
		MaxIterations: opts.MaxIterations,
		Context:       opts.Context,
		OnIteration:   opts.Progress,
		Obs:           s.obs,
	}
}

// memoEntry pairs a memoised analysis result with the SolveReport of
// the solve that produced it, so a memo hit can replay the statistics.
type memoEntry struct {
	val any
	rep SolveReport
}

// replayReport fills opts.Report on a memo hit: the original solve's
// model statistics with ResultMemoHit set, the current call's cache
// outcome, and a zero SolveDuration (no iterations ran).
func replayReport(opts AnalysisOptions, entry memoEntry, hit bool, buildDur time.Duration) {
	if opts.Report == nil {
		return
	}
	rep := entry.rep
	rep.ResultMemoHit = true
	rep.ModelCacheHit = hit
	rep.BuildDuration = buildDur
	rep.SolveDuration = 0
	*opts.Report = rep
}

// expanded validates the (battery, workload, delta) triple and returns
// the — possibly cached — expanded CTMC plus its cache key, whether the
// model came from the cache, and the time spent obtaining it (measured
// only when opts.Report is set; the warm path stays clock-free).
func (s *Solver) expanded(b Battery, w *Workload, opts AnalysisOptions) (*core.Expanded, engine.Key, bool, time.Duration, error) {
	if w == nil {
		return nil, engine.Key{}, false, 0, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if opts.Delta <= 0 || math.IsNaN(opts.Delta) {
		return nil, engine.Key{}, false, 0, fmt.Errorf("%w: discretisation step Delta %v (set AnalysisOptions.Delta to a positive divisor of the well capacities)",
			ErrBadArgument, opts.Delta)
	}
	model := w.kibamrm(b)
	key, _ := engine.Fingerprint(model, opts.Delta, core.Options{})
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	// Context rides along for span parenting only; it is not part of the
	// fingerprint, so cache identity is unchanged.
	e, hit, err := s.eng.Expanded(model, opts.Delta, core.Options{Context: opts.Context})
	var buildDur time.Duration
	if opts.Report != nil {
		buildDur = time.Since(start)
	}
	if err != nil {
		return nil, engine.Key{}, false, 0, wrapErr(err)
	}
	return e, key, hit, buildDur, nil
}

// LifetimeDistribution computes the paper's Markovian approximation of
// the lifetime CDF at the given times (seconds, ascending), reusing the
// cached expanded CTMC for (battery, workload, opts.Delta) when one
// exists. See the package-level LifetimeDistribution for the numerical
// trade-offs of the Δ grid.
func (s *Solver) LifetimeDistribution(b Battery, w *Workload, times []float64, opts AnalysisOptions) (*Distribution, error) {
	return s.lifetimeDistribution(b, w, times, opts, s.eng.Pool())
}

func (s *Solver) lifetimeDistribution(b Battery, w *Workload, times []float64, opts AnalysisOptions, pool *sparse.Pool) (d *Distribution, err error) {
	s.solves.Inc()
	e, modelKey, hit, buildDur, err := s.expanded(b, w, opts)
	if err != nil {
		return nil, err
	}
	key, memoable := memoKey(kindCDF, modelKey, times, opts)
	if memoable {
		if v, ok := s.results.Get(key); ok {
			s.memoHits.Inc()
			entry := v.(memoEntry)
			replayReport(opts, entry, hit, buildDur)
			return entry.val.(*Distribution).clone(), nil
		}
	}
	ctx, span := s.solveSpan(opts.Context, "cdf")
	if span != nil {
		opts.Context = ctx
		defer func() { endSolveSpan(span, err) }()
	}
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	res, err := e.LifetimeCDFOpts(times, s.solveOptions(opts, pool))
	if err != nil {
		return nil, wrapErr(err)
	}
	d = &Distribution{
		Times:       res.Times,
		EmptyProb:   res.EmptyProb,
		States:      res.States,
		Transitions: res.NNZ,
		Iterations:  res.Iterations,
	}
	rep := SolveReport{
		States:             res.States,
		Transitions:        res.NNZ,
		Iterations:         res.Iterations,
		SpMVs:              res.SpMVs,
		FoxGlynnLeft:       res.FoxGlynnLeft,
		FoxGlynnRight:      res.FoxGlynnRight,
		UniformizationRate: res.Rate,
		ModelCacheHit:      hit,
	}
	if opts.Report != nil {
		rep.BuildDuration = buildDur
		rep.SolveDuration = time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		// Durations are per-call; the memo stores only the model stats.
		stored := rep
		stored.BuildDuration, stored.SolveDuration = 0, 0
		s.results.Put(key, memoEntry{val: d.clone(), rep: stored})
	}
	return d, nil
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
func (s *Solver) lifetimeDistributionBatch(b Battery, w *Workload, grids [][]float64, opts AnalysisOptions, pool *sparse.Pool) []*Distribution {
	e, modelKey, hit, _, err := s.expanded(b, w, opts)
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
		key, _ := memoKey(kindCDF, modelKey, grid, opts) // Sweep sets no Progress: always memoable
		if v, ok := s.results.Get(key); ok {
			memoHits++
			dists[k] = v.(memoEntry).val.(*Distribution).clone()
			continue
		}
		missKeys = append(missKeys, key)
		missGrids = append(missGrids, grid)
		missAt = append(missAt, k)
	}
	if len(missGrids) > 0 {
		ctx, span := s.solveSpan(opts.Context, "cdf_batch")
		opts.Context = ctx
		ress, err := e.LifetimeCDFBatchOpts(missGrids, s.solveOptions(opts, pool))
		endSolveSpan(span, err)
		if err != nil {
			return nil
		}
		for i, res := range ress {
			d := &Distribution{
				Times:       res.Times,
				EmptyProb:   res.EmptyProb,
				States:      res.States,
				Transitions: res.NNZ,
				Iterations:  res.Iterations,
			}
			s.results.Put(missKeys[i], memoEntry{val: d.clone(), rep: SolveReport{
				States:             res.States,
				Transitions:        res.NNZ,
				Iterations:         res.Iterations,
				SpMVs:              res.SpMVs,
				FoxGlynnLeft:       res.FoxGlynnLeft,
				FoxGlynnRight:      res.FoxGlynnRight,
				UniformizationRate: res.Rate,
				ModelCacheHit:      hit,
			}})
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
// by the solver's model cache (a day/night schedule over two workloads
// expands each exactly once, however many queries follow), and whole
// results are memoised like every other analysis.
func (s *Solver) PhasedLifetimeDistribution(b Battery, phases []WorkloadPhase, times []float64, opts AnalysisOptions) (d *Distribution, err error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrBadArgument)
	}
	if opts.Delta <= 0 || math.IsNaN(opts.Delta) {
		return nil, fmt.Errorf("%w: discretisation step Delta %v (set AnalysisOptions.Delta to a positive divisor of the well capacities)",
			ErrBadArgument, opts.Delta)
	}
	s.solves.Inc()
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	xs := make([]*core.Expanded, len(phases))
	keys := make([]engine.Key, len(phases))
	durations := make([]float64, len(phases))
	allHit := true
	for i, ph := range phases {
		if ph.Workload == nil {
			return nil, fmt.Errorf("%w: nil workload in phase %d", ErrBadArgument, i)
		}
		d := ph.DurationSeconds
		if d <= 0 && !math.IsInf(d, 1) {
			return nil, fmt.Errorf("%w: phase %d duration %v", ErrBadArgument, i, d)
		}
		model := ph.Workload.kibamrm(b)
		keys[i], _ = engine.Fingerprint(model, opts.Delta, core.Options{})
		e, hit, err := s.eng.Expanded(model, opts.Delta, core.Options{Context: opts.Context})
		if err != nil {
			return nil, wrapErr(err)
		}
		xs[i], durations[i] = e, d
		allHit = allHit && hit
	}
	var buildDur time.Duration
	if opts.Report != nil {
		buildDur = time.Since(start)
	}
	key, memoable := memoKey(kindPhased, phasedKey(keys, durations), times, opts)
	if memoable {
		if v, ok := s.results.Get(key); ok {
			s.memoHits.Inc()
			entry := v.(memoEntry)
			replayReport(opts, entry, allHit, buildDur)
			return entry.val.(*Distribution).clone(), nil
		}
	}
	ctx, span := s.solveSpan(opts.Context, "phased")
	if span != nil {
		opts.Context = ctx
		defer func() { endSolveSpan(span, err) }()
	}
	if opts.Report != nil {
		start = time.Now()
	}
	res, err := core.PhasedLifetimeCDFExpanded(xs, durations, times, s.solveOptions(opts, s.eng.Pool()))
	if err != nil {
		return nil, wrapErr(err)
	}
	d = &Distribution{
		Times:       res.Times,
		EmptyProb:   res.EmptyProb,
		States:      res.States,
		Transitions: res.NNZ,
		Iterations:  res.Iterations,
	}
	rep := SolveReport{
		States:             res.States,
		Transitions:        res.NNZ,
		Iterations:         res.Iterations,
		SpMVs:              res.SpMVs,
		UniformizationRate: res.Rate,
		ModelCacheHit:      allHit,
	}
	if opts.Report != nil {
		rep.BuildDuration = buildDur
		rep.SolveDuration = time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		stored := rep
		stored.BuildDuration, stored.SolveDuration = 0, 0
		s.results.Put(key, memoEntry{val: d.clone(), rep: stored})
	}
	return d, nil
}

// ExpectedLifetime computes E[L] on the expanded chain by solving the
// absorption-time equations (no time grid needed); see the package
// function of the same name. Epsilon, MaxIterations, Context and
// Progress do not apply to the direct linear solve and are ignored.
func (s *Solver) ExpectedLifetime(b Battery, w *Workload, opts AnalysisOptions) (mean float64, err error) {
	s.solves.Inc()
	e, modelKey, hit, buildDur, err := s.expanded(b, w, opts)
	if err != nil {
		return 0, err
	}
	key, memoable := memoKey(kindMean, modelKey, nil, opts)
	if memoable {
		if v, ok := s.results.Get(key); ok {
			s.memoHits.Inc()
			entry := v.(memoEntry)
			replayReport(opts, entry, hit, buildDur)
			return entry.val.(float64), nil
		}
	}
	_, span := s.solveSpan(opts.Context, "mean")
	if span != nil {
		defer func() { endSolveSpan(span, err) }()
	}
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	mean, err = e.MeanLifetime()
	if err != nil {
		return 0, wrapErr(err)
	}
	// The mean solve is a direct linear system: no uniformisation
	// statistics to report beyond the chain size.
	rep := SolveReport{
		States:        e.NumStates(),
		Transitions:   e.NNZ(),
		ModelCacheHit: hit,
	}
	if opts.Report != nil {
		rep.BuildDuration = buildDur
		rep.SolveDuration = time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		stored := rep
		stored.BuildDuration, stored.SolveDuration = 0, 0
		s.results.Put(key, memoEntry{val: mean, rep: stored})
	}
	return mean, nil
}

// StrandedCharge computes the stranded-charge summary at a horizon far
// past the lifetime's upper tail; see ExpectedStrandedCharge for the
// measure's semantics. The horizon must leave at least 99% of the
// probability mass depleted, or an error matching ErrBadArgument is
// returned.
func (s *Solver) StrandedCharge(b Battery, w *Workload, horizonSeconds float64, opts AnalysisOptions) (out *StrandedCharge, err error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if b.AvailableFraction >= 1 {
		return &StrandedCharge{}, nil // no bound well, nothing to strand
	}
	s.solves.Inc()
	e, modelKey, hit, buildDur, err := s.expanded(b, w, opts)
	if err != nil {
		return nil, err
	}
	key, memoable := memoKey(kindStranded, modelKey, []float64{horizonSeconds}, opts)
	if memoable {
		if v, ok := s.results.Get(key); ok {
			s.memoHits.Inc()
			entry := v.(memoEntry)
			replayReport(opts, entry, hit, buildDur)
			sc := entry.val.(StrandedCharge)
			return &sc, nil
		}
	}
	ctx, span := s.solveSpan(opts.Context, "stranded")
	if span != nil {
		opts.Context = ctx
		defer func() { endSolveSpan(span, err) }()
	}
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	wc, err := e.WastedChargeDistributionOpts(horizonSeconds, s.solveOptions(opts, s.eng.Pool()))
	if err != nil {
		return nil, wrapErr(err)
	}
	if wc.AbsorbedMass < 0.99 {
		return nil, fmt.Errorf("%w: only %.1f%% of runs depleted by the horizon; increase horizonSeconds",
			ErrBadArgument, 100*wc.AbsorbedMass)
	}
	bound := (1 - b.AvailableFraction) * b.CapacityAs
	sc := StrandedCharge{
		MeanAs:          wc.Mean(),
		FractionOfBound: wc.Mean() / bound,
	}
	rep := SolveReport{
		States:        e.NumStates(),
		Transitions:   e.NNZ(),
		ModelCacheHit: hit,
	}
	if opts.Report != nil {
		rep.BuildDuration = buildDur
		rep.SolveDuration = time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		stored := rep
		stored.BuildDuration, stored.SolveDuration = 0, 0
		s.results.Put(key, memoEntry{val: sc, rep: stored})
	}
	return &sc, nil
}

// ExactCDF computes the exact lifetime CDF for a battery with all
// charge available (AvailableFraction = 1) via the performability
// transform — the same quantity as the deprecated ExactLifetimeCDF, but
// returned as a *Distribution whose States, Transitions and Iterations
// reflect the workload chain and the number of transform evaluations,
// making the exact path interchangeable with the approximate ones
// downstream. Delta, Epsilon and Progress are ignored (the transform
// needs no grid and reports no step-wise progress); Context cancels
// between time points.
func (s *Solver) ExactCDF(b Battery, w *Workload, times []float64, opts AnalysisOptions) (d *Distribution, err error) {
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
	model := mrm.ConstantReward{
		Chain:   w.model.Chain,
		Rates:   w.model.Currents,
		Initial: w.model.Initial,
	}
	// The exact path has no expanded model; key on the workload chain
	// (via the KiBaMRM fingerprint at a dummy Δ) plus the capacity.
	modelKey, _ := engine.Fingerprint(w.kibamrm(b), 1, core.Options{})
	key, memoable := memoKey(kindExact, modelKey, times, opts)
	key.capBits = math.Float64bits(b.CapacityAs)
	key.exactCDF = true
	s.solves.Inc()
	if memoable {
		if v, ok := s.results.Get(key); ok {
			s.memoHits.Inc()
			entry := v.(memoEntry)
			replayReport(opts, entry, false, 0)
			return entry.val.(*Distribution).clone(), nil
		}
	}
	ctx, span := s.solveSpan(opts.Context, "exact")
	if span != nil {
		opts.Context = ctx
		defer func() { endSolveSpan(span, err) }()
	}
	var start time.Time
	if opts.Report != nil {
		start = time.Now()
	}
	probs, stats, err := performability.EnergyDepletionCDFStats(model, b.CapacityAs, times, opts.Context)
	if err != nil {
		return nil, wrapErr(err)
	}
	d = &Distribution{
		Times:       append([]float64(nil), times...),
		EmptyProb:   probs,
		States:      stats.States,
		Transitions: stats.Transitions,
		Iterations:  stats.TransformEvals,
	}
	// The exact transform expands no CTMC; Iterations here counts
	// transform evaluations.
	rep := SolveReport{
		States:      stats.States,
		Transitions: stats.Transitions,
		Iterations:  stats.TransformEvals,
	}
	if opts.Report != nil {
		rep.SolveDuration = time.Since(start)
		*opts.Report = rep
	}
	if memoable {
		s.results.Put(key, memoEntry{val: d.clone(), rep: rep})
	}
	return d, nil
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

// sweepGroups partitions scenario indexes by expanded-model identity
// (the engine fingerprint over battery, workload and Δ): scenarios in
// one group share an expanded CTMC and are solved as one union-grid
// transient. Scenarios that cannot be fingerprinted (nil workload,
// non-positive Δ) become singleton groups so the solo path reports
// their errors exactly. Group order follows first appearance,
// and indexes within a group stay in input order.
func sweepGroups(scenarios []Scenario) [][]int {
	groups := make([][]int, 0, len(scenarios))
	at := make(map[engine.Key]int, len(scenarios))
	for i, sc := range scenarios {
		if sc.Workload == nil || !(sc.DeltaAs > 0) {
			groups = append(groups, []int{i})
			continue
		}
		key, ok := engine.Fingerprint(sc.Workload.kibamrm(sc.Battery), sc.DeltaAs, core.Options{})
		if !ok {
			groups = append(groups, []int{i})
			continue
		}
		if g, dup := at[key]; dup {
			groups[g] = append(groups[g], i)
			continue
		}
		at[key] = len(groups)
		groups = append(groups, []int{i})
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
				group := groups[gi]
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
					}, pool)
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
						}, pool)
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
