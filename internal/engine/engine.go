// Package engine is the reusable solving substrate behind the
// batlife.Solver facade. The paper's experiments (Figs. 7–9, Table 2)
// evaluate the same KiBaMRM at many step sizes, time grids and initial
// capacities; every such query pays for expanding the CTMC Q* and
// uniformising it before a single iteration runs. The engine amortises
// that construction: expanded models are kept in a bounded LRU cache
// keyed by a fingerprint of (battery constants, workload chain, step Δ,
// build options), and each cached model carries its own uniformised
// operator and Fox–Glynn tables (see core.Expanded.Operator), so a
// repeated query skips straight to the transient iteration — or, one
// layer up, to a memoised result.
//
// The engine also owns the SpMV worker pool shared by every solve it
// serves, so concurrent scenario sweeps draw from one bounded pool
// instead of multiplying goroutines per query.
package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"batlife/internal/core"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/sparse"
)

// Options configures an Engine.
type Options struct {
	// Capacity bounds the number of expanded CTMCs retained; at most
	// Capacity models (each O(states + transitions) memory) are live at
	// once. Values < 1 select 8.
	Capacity int
	// Workers sets the parallelism of the shared SpMV pool; values < 1
	// select runtime.NumCPU().
	Workers int
	// Obs, when non-nil, is the observability registry the engine (and
	// the pool and builds it owns) records into: cache hit/miss/eviction
	// counters, build timing, "engine.build" spans. The engine's Stats
	// counters work with or without a registry.
	Obs *obs.Registry
}

// Engine caches expanded CTMCs across queries. It is safe for concurrent
// use. Concurrent misses on the same key are single-flighted: exactly
// one goroutine builds the model while the others wait and share the
// result, so the cache statistics record one build (a miss) and n−1
// waiter-hits — and an expensive expansion is never duplicated.
type Engine struct {
	pool   *sparse.Pool
	models *Cache[Key, *core.Expanded]
	obs    *obs.Registry

	mu       sync.Mutex
	inflight map[Key]*inflightBuild

	hits, misses, evictions *obs.Counter
	buildSeconds            *obs.Histogram
}

// inflightBuild is one in-progress model expansion that concurrent
// requesters of the same key wait on.
type inflightBuild struct {
	done chan struct{}
	x    *core.Expanded
	err  error
}

// New returns an Engine with the given cache bound and worker pool.
func New(o Options) *Engine {
	capacity := o.Capacity
	if capacity < 1 {
		capacity = 8
	}
	e := &Engine{
		pool:     sparse.NewPoolObs(o.Workers, o.Obs),
		models:   NewCache[Key, *core.Expanded](capacity),
		obs:      o.Obs,
		inflight: make(map[Key]*inflightBuild),
	}
	if o.Obs != nil {
		e.hits = o.Obs.Counter("engine_cache_hits_total")
		e.misses = o.Obs.Counter("engine_cache_misses_total")
		e.evictions = o.Obs.Counter("engine_cache_evictions_total")
		e.buildSeconds = o.Obs.Histogram("engine_build_seconds")
	} else {
		// Stats must work without a registry; standalone counters cost
		// one atomic word each.
		e.hits = obs.NewCounter()
		e.misses = obs.NewCounter()
		e.evictions = obs.NewCounter()
	}
	e.models.SetOnEvict(func(Key, *core.Expanded) { e.evictions.Inc() })
	return e
}

// Pool returns the engine's shared SpMV worker pool.
func (e *Engine) Pool() *sparse.Pool { return e.pool }

// Close releases the engine's persistent SpMV worker goroutines. The
// engine stays usable — later solves run their products serially — so
// Close is a resource release, not a poison pill. Idempotent.
func (e *Engine) Close() { e.pool.Close() }

// CachedModels reports how many expanded models are currently retained.
func (e *Engine) CachedModels() int { return e.models.Len() }

// Stats is a point-in-time view of the engine's cache behaviour.
type Stats struct {
	// Hits counts queries answered from the cache, including waiter-hits
	// — requests that arrived while another goroutine was building the
	// same model and shared its result.
	Hits int64
	// Misses counts queries that performed a build (successful or not).
	// Under concurrent misses on one key exactly one build happens, so
	// n concurrent first requests record 1 miss and n−1 hits.
	Misses int64
	// Evictions counts models dropped by the LRU bound.
	Evictions int64
	// Entries is the current number of cached models.
	Entries int
}

// Stats reports the engine's cache counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:      e.hits.Value(),
		Misses:    e.misses.Value(),
		Evictions: e.evictions.Value(),
		Entries:   e.models.Len(),
	}
}

// Key identifies one expanded model in the cache: a SHA-256 digest of
// the model's full content (battery constants, workload generator,
// currents, initial distribution, charging flag), the step Δ and the
// build options. Content addressing makes structurally identical models
// share an entry even when built through different Workload values.
type Key [sha256.Size]byte

// Fingerprint computes the cache key for (model, delta, build). The
// second result reports cacheability: a TransitionRate hook is a
// function and cannot be fingerprinted, so models using one bypass the
// cache.
func Fingerprint(m mrm.KiBaMRM, delta float64, build core.Options) (Key, bool) {
	if build.TransitionRate != nil {
		return Key{}, false
	}
	h := sha256.New()
	var buf [8]byte
	writeF := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	writeU := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	writeF(delta)
	writeF(m.Battery.Capacity)
	writeF(m.Battery.C)
	writeF(m.Battery.K)
	var flags uint64
	if m.AllowCharging {
		flags |= 1
	}
	if build.AllowEmptyRecovery {
		flags |= 2
	}
	writeU(flags)

	if m.Workload == nil {
		// Invalid model: let core.Build produce the error. Still
		// fingerprintable (all invalid-nil models alias one key that
		// never reaches the cache because Build fails first).
		return Key(sha256.Sum256([]byte("engine: nil workload"))), true
	}
	n := m.Workload.NumStates()
	writeU(uint64(int64(n)))
	for _, c := range m.Currents {
		writeF(c)
	}
	for _, a := range m.Initial {
		writeF(a)
	}
	gen := m.Workload.Generator()
	for r := 0; r < gen.Rows(); r++ {
		gen.Row(r, func(col int, v float64) {
			writeU(uint64(int64(r))<<32 | uint64(int64(col)))
			writeF(v)
		})
	}
	var key Key
	h.Sum(key[:0])
	return key, true
}

// Expanded returns the expanded CTMC for (model, delta, build), reusing
// a cached instance when the fingerprint matches and building (and
// caching) it otherwise. The second result reports whether the model
// came from the cache (including waiting on another goroutine's
// in-flight build). Cached models are shared across callers and must be
// treated as immutable — which core.Expanded guarantees for its public
// API.
func (e *Engine) Expanded(m mrm.KiBaMRM, delta float64, build core.Options) (*core.Expanded, bool, error) {
	key, cacheable := Fingerprint(m, delta, build)
	if !cacheable {
		e.misses.Inc()
		x, err := e.build(m, delta, build)
		return x, false, err
	}
	e.mu.Lock()
	if x, ok := e.models.Get(key); ok {
		e.mu.Unlock()
		e.hits.Inc()
		return x, true, nil
	}
	if c, ok := e.inflight[key]; ok {
		// Another goroutine is building this model; wait and share.
		e.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, false, c.err
		}
		e.hits.Inc()
		return c.x, true, nil
	}
	c := &inflightBuild{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()

	e.misses.Inc()
	c.x, c.err = e.build(m, delta, build)
	e.mu.Lock()
	if c.err == nil {
		e.models.Put(key, c.x)
	}
	delete(e.inflight, key)
	e.mu.Unlock()
	close(c.done)
	return c.x, false, c.err
}

// build runs one model expansion, recording timing and a span when the
// engine has a registry. The engine's registry is injected into the
// build options (unless the caller set one) so core's expansion
// telemetry flows into the same place, and the "engine.build" span is
// parented under the span carried by build.Context — threading the
// request trace through to the nested "core.build" span.
func (e *Engine) build(m mrm.KiBaMRM, delta float64, build core.Options) (*core.Expanded, error) {
	if build.Obs == nil {
		build.Obs = e.obs
	}
	if e.obs == nil {
		return core.Build(m, delta, build)
	}
	ctx, span := obs.StartSpan(build.Context, e.obs, "engine.build", obs.Float("delta", delta))
	build.Context = ctx
	start := time.Now()
	x, err := core.Build(m, delta, build)
	if err != nil {
		span.End(obs.String("error", err.Error()))
		return nil, err
	}
	e.buildSeconds.ObserveDuration(time.Since(start).Seconds())
	span.End(obs.Int("states", int64(x.NumStates())), obs.Int("nnz", int64(x.NNZ())))
	return x, nil
}
