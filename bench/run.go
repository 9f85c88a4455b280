package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"batlife/internal/api"
)

// setups is how many times an untraced run builds its stack: half before
// the measured phase, the last of which is measured, and half after it.
// setup_s is their median. Set-ups back to back all fell in the same
// slow or fast phase of the shared host; spread over the run they see
// the host the requests see.
const setups = 10

// heapAfter is the closed-loop request count after which the live heap
// is read: the model cache then holds the same number of models on
// every seed and machine.
const heapAfter = 4

// Replay traffic: the open-loop rate and the longest untraced phase 1;
// a traced run replays every replaySampling-th request of phase 1.
const (
	replayRate     = 4000.0
	replayPhase1   = 5 * time.Second
	replaySampling = 100
)

// options configures one run: how long it measures, whether it is the
// traced pass, and the golden answers it checks against.
type options struct {
	dur    time.Duration
	trace  bool
	golden *goldenSet
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Info      map[string]value `json:"info,omitempty"`
	NumCPU    int              `json:"nproc"`
	GoVersion string           `json:"go"`

	tracer *tracer
}

func (r *result) put(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // no calls to divide by; JSON has no encoding for it
	}
	r.Metrics[name] = value{Value: v, Unit: unitOf[name], N: n}
}

// count adds a phase's requests to the run's totals.
func (r *result) count(samples []sample) {
	for _, s := range samples {
		r.Attempted++
		if s.failed {
			r.Failed++
		}
	}
}

func latencies(samples []sample, keep func(i int) bool) []float64 {
	var out []float64
	for i, s := range samples {
		if keep == nil || keep(i) {
			out = append(out, s.latency().Seconds())
		}
	}
	return out
}

// note records a value that is printed and written with -out but not
// gated, so it is not on the result line.
func (r *result) note(name string, v float64, unit string, n int) {
	if r.Info == nil {
		r.Info = map[string]value{}
	}
	r.Info[name] = value{Value: v, Unit: unit, N: n}
}

// noteTail notes, where the samples support one, the highest
// percentile with minBeyond samples beyond it, labelled down to a
// thousandth of a percent. Tails are not gated: on a shared 2-CPU host
// they did not repeat run to run (see README.md).
func (r *result) noteTail(samples []sample, suffix string) {
	lat := latencies(samples, nil)
	if k, ok := tail(len(lat)); ok {
		pct := math.Floor(100000*float64(k+1)/float64(len(lat))) / 1000
		r.note("latency_p"+strconv.FormatFloat(pct, 'f', -1, 64)+"_s"+suffix, sorted(lat)[k], "s", len(lat))
	}
}

// memDelta reports allocs_per_req and alloc_bytes_per_req over a phase.
func (r *result) memDelta(before, after *runtime.MemStats, n int) {
	r.put("allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	r.put("alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)
}

// liveHeap returns the heap still in use after two collections; the
// second drops what sync.Pool caches survive the first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// checkResponse decodes a solve or sweep response and checks every
// result against the golden answers of its model and grid.
func checkResponse(g *goldenSet, r request, body []byte) error {
	var results []*api.SolveResult
	if r.path == "/v1/sweep" {
		var resp api.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for _, it := range resp.Results {
			if it.Error != nil {
				return fmt.Errorf("scenario %d: %s", it.Index, it.Error.Message)
			}
			results = append(results, it.Result)
		}
	} else {
		var resp api.SolveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		results = append(results, resp.Result)
	}
	if len(results) != len(r.js) {
		return fmt.Errorf("%d results for %d scenarios", len(results), len(r.js))
	}
	for i, res := range results {
		if res == nil || len(res.Times) != len(r.grids[i]) {
			return fmt.Errorf("result %d: wrong time grid", i)
		}
		for k, t := range res.Times {
			if math.Float64bits(t) != math.Float64bits(r.grids[i][k]) {
				return fmt.Errorf("result %d: time %v, asked for %v", i, t, r.grids[i][k])
			}
		}
		if err := g.check(r.js[i], res.Times, res.EmptyProb); err != nil {
			return err
		}
	}
	return nil
}

// setUp builds the stack n times, each time sending the warm-up
// requests, and returns the last stack with the set-up times. With g
// set, the warm-up answers are checked against it.
func setUp(warm []request, g *goldenSet, n int) (*stack, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		st := newStack()
		bodies := make([][]byte, len(warm))
		for k, r := range warm {
			body, err := st.post(r.path, r.body)
			if err != nil {
				return nil, nil, errors.Join(fmt.Errorf("set-up: %w", err), st.close())
			}
			bodies[k] = body
		}
		times = append(times, time.Since(start).Seconds())
		for k, r := range warm {
			if g == nil {
				break
			}
			if err := checkResponse(g, r, bodies[k]); err != nil {
				return nil, nil, errors.Join(fmt.Errorf("set-up: %w", err), st.close())
			}
		}
		if i == n-1 {
			return st, times, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}

// counters snapshots the server's existing instruments that the
// per-layer ratios divide.
type counters struct {
	hits, misses, solves, memo, coalesced, rejected int64
}

func snapshot(st *stack) counters {
	s := st.solver.Stats()
	return counters{
		hits: s.Hits, misses: s.Misses,
		solves:    st.counter("solver_solves_total"),
		memo:      st.counter("solver_result_memo_hits_total"),
		coalesced: st.counter("service_coalesced_total"),
		rejected:  st.counter("service_rejected_total"),
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// putCounters reports the ratios of the server's counters over a phase
// of n requests.
func (r *result) putCounters(before, after counters, n int) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	r.put("engine.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	solves := after.solves - before.solves
	r.put("batlife.memo_hit_ratio", ratio(after.memo-before.memo, solves), int(solves))
	r.put("service.coalesced_ratio", ratio(after.coalesced-before.coalesced, int64(n)), n)
	r.put("service.rejected_ratio", ratio(after.rejected-before.rejected, int64(n)), n)
}

// tracedSend wraps send so that every even-numbered request runs under
// a root span, which lets one run compare traced with untraced latency.
func tracedSend(tr *tracer, send func(i int) ([]byte, error)) func(i int) ([]byte, error) {
	var mu sync.Mutex
	return func(i int) ([]byte, error) {
		if i%2 == 1 {
			return send(i)
		}
		start := time.Now()
		body, err := send(i)
		end := time.Now()
		mu.Lock()
		tr.record("http.request", i, start, end)
		mu.Unlock()
		return body, err
	}
}

// putOverhead reports the traced requests' median latency minus the
// untraced ones'.
func (r *result) putOverhead(samples []sample) {
	even := latencies(samples, func(i int) bool { return i%2 == 0 })
	odd := latencies(samples, func(i int) bool { return i%2 == 1 })
	r.put("trace.overhead_s", median(even)-median(odd), len(samples))
}

// runWorkload runs w once: set-up, then the measured phase for
// o.seconds, or with o.trace a traced phase of half that followed by the
// layer replay. An untraced run then times the rest of its set-ups.
func runWorkload(w workload, seed int64, o options) (*result, error) {
	gen, err := newGenerator(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: seed, Seconds: o.dur.Seconds(), Trace: o.trace,
		Metrics: map[string]value{}, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	// The replay set is the measured model set, so its warm-up answers
	// are checked; the others warm up on a model outside the set.
	var (
		warm    []request
		checked *goldenSet
	)
	if w.shape == replayShape {
		warm, err = gen.replaySet()
		checked = o.golden
	} else {
		var r request
		r, err = gen.warmup()
		warm = []request{r}
	}
	if err != nil {
		return nil, err
	}
	st, setupTimes, err := setUp(warm, checked, setups/2)
	if err != nil {
		return nil, err
	}
	if o.trace {
		res.tracer = newTracer()
	}
	if w.shape == replayShape {
		err = runReplay(st, gen, warm, o, res)
	} else {
		err = runClosed(st, gen, o, res)
	}
	res.Correct = err == nil && res.Failed == 0
	var replayErr *layerError
	if errors.As(err, &replayErr) {
		err = nil // a wrong replayed answer makes the run incorrect, not unmeasurable
	}
	if err = errors.Join(err, st.close()); err == nil && !o.trace {
		var more []float64
		if st, more, err = setUp(warm, checked, setups-setups/2); err == nil {
			err = st.close()
		}
		setupTimes = append(setupTimes, more...)
	}
	res.put("setup_s", median(setupTimes), len(setupTimes))
	return res, err
}

// layerError marks a failure of the layer replay.
type layerError struct{ err error }

func (e *layerError) Error() string { return "layer replay: " + e.err.Error() }
func (e *layerError) Unwrap() error { return e.err }

// runClosed measures a closed-loop workload: one client sends each
// request when the previous one has completed.
func runClosed(st *stack, gen *generator, o options, res *result) error {
	dur := o.dur
	if o.trace {
		dur /= 2
	}
	var reqs []request
	first, err := gen.measured()
	if err != nil {
		return err
	}
	reqs = append(reqs, first)
	send := func(i int) ([]byte, error) { return st.post(reqs[i].path, reqs[i].body) }
	if o.trace {
		send = tracedSend(res.tracer, send)
	}
	var genErr error
	heap := 0.0
	after := func(i int, body []byte, err error) bool {
		ok := err == nil && checkResponse(o.golden, reqs[i], body) == nil
		if i+1 == heapAfter {
			heap = liveHeap()
		}
		next, err := gen.measured()
		if err != nil {
			genErr = err
		}
		reqs = append(reqs, next)
		return ok
	}
	before := snapshot(st)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples := closedLoop(dur, 1, send, after)
	runtime.ReadMemStats(&m1)
	if genErr != nil {
		return genErr
	}
	res.count(samples)
	n := len(samples)
	if n < heapAfter {
		heap = liveHeap()
	}
	if !o.trace {
		res.put("latency_p50_s", median(latencies(samples, nil)), n)
		res.noteTail(samples, "")
		res.memDelta(&m0, &m1, n)
		res.put("live_heap_bytes", heap, n)
		return nil
	}
	res.putCounters(before, snapshot(st), n)
	res.putOverhead(samples)
	l := newLayers(res.tracer, o.golden)
	defer l.close()
	// Replay requests in order while the next one, taking as long as the
	// last, still ends within the traced half's length.
	start, last := time.Now(), time.Duration(0)
	for i, s := range samples {
		if i > 0 && time.Since(start)+last > dur {
			break
		}
		replay := l.replaySolve
		if reqs[i].path == "/v1/sweep" {
			replay = l.replaySweep
		}
		t := time.Now()
		if err := replay(i, reqs[i], s.service()); err != nil {
			return &layerError{err}
		}
		last = time.Since(t)
	}
	res.putLayers(l)
	return nil
}

// runReplay measures the replay workload. Phase 1 is an open loop at a
// fixed rate. Untraced, phase 2 keeps every connection busy for the
// rest of the run and gives the gated latency and rate: at 4,000 req/s
// the CPUs idle between requests, and the latency then follows how fast
// the host wakes them, which did not repeat run to run.
func runReplay(st *stack, gen *generator, set []request, o options, res *result) error {
	total := o.dur
	p1 := total / 2
	if !o.trace {
		p1 = min(total/4, replayPhase1)
	}
	plan := &replayStream{seed: gen.seed, set: set}
	send := func(i int) ([]byte, error) { return st.post("/v1/solve", plan.body(i)) }
	if o.trace {
		send = tracedSend(res.tracer, send)
	}
	verify := func(i int, body []byte, err error) bool {
		r, _ := plan.decide(i)
		return err == nil && checkResponse(o.golden, r, body) == nil
	}

	before := snapshot(st)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples := openLoop(replayRate, p1, conns, send, verify)
	runtime.ReadMemStats(&m1)
	res.count(samples)
	n := len(samples)
	if !o.trace {
		at := fmt.Sprintf("@%.0freq/s", replayRate)
		res.note("latency_p50_s"+at, median(latencies(samples, nil)), "s", n)
		res.noteTail(samples, at)
		var late time.Duration
		for _, s := range samples {
			late = max(late, s.sent-s.due)
		}
		res.note("generator_late_max_s"+at, late.Seconds(), "s", n)
		res.memDelta(&m0, &m1, n)
		res.put("live_heap_bytes", liveHeap(), n)
		// Request numbers continue past phase 1, so fresh timeouts stay
		// unique.
		sat := closedLoop(total-p1, conns,
			func(i int) ([]byte, error) { return send(n + i) },
			func(i int, body []byte, err error) bool { return verify(n+i, body, err) })
		res.count(sat)
		res.put("latency_p50_s", median(latencies(sat, nil)), len(sat))
		// With every connection busy, the rate is conns over the mean
		// latency: it restates latency_p50_s, so it is not gated.
		res.note("max_rate_rps", median(perSecond(sat)), "req/s", len(sat))
		return nil
	}
	res.putCounters(before, snapshot(st), n)
	res.putOverhead(samples)
	l := newLayers(res.tracer, o.golden)
	defer l.close()
	if err := l.warm(set); err != nil {
		return &layerError{err}
	}
	start := time.Now()
	for i := 0; i < n; i += replaySampling {
		if i > 0 && time.Since(start) >= total-p1 {
			break
		}
		r, _ := plan.decide(i)
		r.body = plan.body(i)
		if err := l.replaySolve(i, r, samples[i].service()); err != nil {
			return &layerError{err}
		}
	}
	res.putLayers(l)
	return nil
}

// putLayers reports the per-layer metrics from the replayed calls: the
// median of each layer's calls, named after its span (0 over no calls),
// and the ratios derived from them.
func (r *result) putLayers(l *layers) {
	for _, d := range perLayer {
		if _, set := r.Metrics[d.name]; !set {
			xs := l.calls[strings.TrimSuffix(d.name, "_s")]
			r.put(d.name, median(xs), len(xs))
		}
	}
	spmv := median(l.calls["sparse.spmv"])
	transient, n := median(l.calls["ctmc.transient"]), len(l.calls["ctmc.transient"])
	spmvs := median(l.calls["ctmc.spmvs"])
	r.put("sparse.spmv_gbps", median(l.calls["sparse.spmv_bytes"])/spmv/1e9, n)
	r.put("sparse.share", spmvs*spmv/transient, n)
	r.put("ctmc.self_s", transient-spmvs*spmv, n)
	r.put("ctmc.ns_per_iter", transient/median(l.calls["ctmc.iterations"])*1e9, n)
}
