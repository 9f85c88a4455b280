// Package service is the batlifed daemon's core: a long-running solve
// service fronting a shared batlife.Solver behind HTTP/JSON (the
// internal/api wire schema). It owns the concerns a request/response
// CLI does not have:
//
//   - Admission control. At most MaxInflight jobs run concurrently and
//     at most QueueDepth more may wait; past that, new work is refused
//     immediately with an overload error rather than queued without
//     bound.
//   - Deadlines. Every job runs under a context with a per-request
//     timeout (clamped to a server maximum) that propagates into
//     AnalysisOptions, so a stuck solve cannot pin a worker forever.
//   - Coalescing and idempotency. Job identity is the content address
//     of the canonical request (api.Fingerprint); identical concurrent
//     requests attach to one running job and identical replays within
//     the retention window are served from the job store without
//     resolving. The solver's own model cache and result memo make the
//     underlying numerics cheap; coalescing extends that economy to
//     whole requests.
//   - Graceful drain. Drain stops admitting work, lets inflight jobs
//     finish, and flips /readyz to not-ready so load balancers move on.
//
// The package is transport-complete but socket-free: Routes returns an
// http.Handler and cmd/batlifed owns listening and signals.
package service

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"batlife"
	"batlife/internal/api"
	"batlife/internal/obs"
)

// Config tunes a Service. The zero value of every field selects a
// sensible default.
type Config struct {
	// Solver executes the analyses. Nil constructs a private solver
	// with default cache bounds.
	Solver *batlife.Solver
	// MaxInflight bounds concurrently running jobs; values < 1 select
	// runtime.NumCPU().
	MaxInflight int
	// QueueDepth bounds jobs admitted but waiting for a run slot;
	// values < 0 select 2×MaxInflight. Zero is honoured: no queue,
	// reject unless a run slot is free.
	QueueDepth int
	// DefaultTimeout applies to requests that do not set
	// timeout_seconds; values <= 0 select 60s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps requested timeouts; values <= 0 select 10min.
	MaxTimeout time.Duration
	// JobRetention bounds how many finished jobs stay addressable via
	// GET /v1/jobs/{id} (and replayable by identical POSTs); values < 1
	// select 128. Oldest-finished evicts first.
	JobRetention int
	// SweepWorkers clamps the per-request scenario parallelism; values
	// < 1 select runtime.NumCPU().
	SweepWorkers int
	// Obs, when non-nil, records service metrics (queue wait, inflight,
	// per-endpoint latency, rejections, coalesced hits) and is mounted
	// at /metrics, /debug/traces and /debug/pprof/ by Routes.
	Obs *obs.Registry
}

func (c *Config) setDefaults() {
	if c.MaxInflight < 1 {
		c.MaxInflight = runtime.NumCPU()
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.JobRetention < 1 {
		c.JobRetention = 128
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = runtime.NumCPU()
	}
}

// Service is the daemon core. All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	solver *batlife.Solver
	reg    *obs.Registry

	// tokens is the admission budget (run slots + queue depth): holding
	// a token means the job is inside the service, queued or running.
	// slots is the run budget. Both are channel semaphores so acquire
	// composes with select.
	tokens chan struct{}
	slots  chan struct{}

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first, for retention eviction

	draining atomic.Bool
	inflight sync.WaitGroup // running + queued jobs

	// ownsSolver records that New constructed the solver (Config.Solver
	// was nil), so a completed Drain releases its worker goroutines too.
	ownsSolver bool

	// Pre-resolved instruments (nil without Obs; methods on nil are
	// no-ops).
	inflightGauge *obs.Gauge
	queueWait     *obs.Histogram
	rejections    *obs.Counter
	coalesces     *obs.Counter
	jobsStarted   *obs.Counter

	// solve and sweep execute the analyses; tests substitute these to
	// pin scheduling behaviour (drain, cancellation, deadlines) without
	// real numerics.
	solve func(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error)
	sweep func(ctx context.Context, req *api.SweepRequest, progress func(done, total int)) ([]api.SweepItemResult, error)
}

// New constructs a Service.
func New(cfg Config) *Service {
	cfg.setDefaults()
	s := &Service{
		cfg:    cfg,
		solver: cfg.Solver,
		reg:    cfg.Obs,
		tokens: make(chan struct{}, cfg.MaxInflight+cfg.QueueDepth),
		slots:  make(chan struct{}, cfg.MaxInflight),
		jobs:   make(map[string]*job),
	}
	if s.solver == nil {
		// The daemon owns this solver — and so its persistent SpMV worker
		// pool — for its whole lifetime; Drain releases it.
		s.solver = batlife.NewSolver(batlife.SolverOptions{Telemetry: cfg.Obs})
		s.ownsSolver = true
	}
	if s.reg != nil {
		s.inflightGauge = s.reg.Gauge("service_inflight")
		s.queueWait = s.reg.Histogram("service_queue_wait_seconds")
		s.rejections = s.reg.Counter("service_rejected_total")
		s.coalesces = s.reg.Counter("service_coalesced_total")
		s.jobsStarted = s.reg.Counter("service_jobs_total")
	}
	s.solve = s.runSolve
	s.sweep = s.runSweep
	return s
}

// Solver exposes the backing solver (for stats endpoints and tests).
func (s *Service) Solver() *batlife.Solver { return s.solver }

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool { return s.draining.Load() }

// BeginDrain stops admitting new jobs: subsequent solve/sweep requests
// fail with ErrDraining and /readyz turns not-ready. Inflight and
// queued jobs keep running. Idempotent.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Drain performs a graceful shutdown: stop admitting, then wait for
// every admitted job to finish or for ctx to expire, whichever comes
// first. It returns ctx.Err() on expiry, nil once idle. A successful
// drain of a service that constructed its own solver (Config.Solver was
// nil) also closes that solver's persistent SpMV worker pool; on expiry
// the workers are left running because jobs may still be using them.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	idle := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		if s.ownsSolver {
			s.solver.Close()
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// job is one admitted unit of work, shared by every request that
// coalesced onto it.
type job struct {
	id   string
	kind string // "solve" or "sweep"

	// ctx governs the job's whole life; cancel fires when the last
	// waiter detaches before completion (nobody wants the answer).
	ctx    context.Context
	cancel context.CancelFunc

	timeout time.Duration

	done    chan struct{} // closed on completion
	payload any           // *api.SolveResult or []api.SweepItemResult
	err     error         // terminal failure, nil on success

	// span is the "service.job" span covering the job's whole life
	// (nil without telemetry); trace is its trace identity, reported in
	// JobStatus so a client can correlate a job with /debug/traces.
	span  *obs.Span
	trace obs.TraceID

	progressDone  atomic.Int64
	progressTotal atomic.Int64

	mu       sync.Mutex
	finished bool
	waiters  int
	subs     map[chan struct{}]struct{}
}

// attach registers a caller waiting on the job. It returns false when
// the job already finished (replay — no waiter accounting needed).
func (j *job) attach() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return false
	}
	j.waiters++
	return true
}

// detach drops one waiter; when the last waiter leaves an unfinished
// job, the job is cancelled — nobody is listening for the answer, so
// burning a run slot on it would only delay admitted work.
func (j *job) detach() {
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0 && !j.finished
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// finish publishes the outcome and wakes waiters and subscribers.
func (j *job) finish(payload any, err error) {
	j.mu.Lock()
	j.finished = true
	j.payload = payload
	j.err = err
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
	close(j.done)
	j.cancel()
}

// state reports the api.Job* state string.
func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case !j.finished:
		if j.progressDone.Load() > 0 || j.progressTotal.Load() > 0 {
			return api.JobRunning
		}
		return api.JobQueued
	case j.err != nil:
		return api.JobFailed
	default:
		return api.JobDone
	}
}

// subscribe registers a progress notification channel; notify sends are
// non-blocking, so the channel doubles as a dirty flag.
func (j *job) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan struct{}]struct{})
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// setProgress records sweep progress and pokes subscribers.
func (j *job) setProgress(done, total int) {
	j.progressDone.Store(int64(done))
	j.progressTotal.Store(int64(total))
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// runFunc is a job body: it runs under the job's deadline context and
// may report progress through the supplied sink (never nil).
type runFunc func(ctx context.Context, progress func(done, total int)) (any, error)

// admit looks up or creates the job for a fingerprint. ctx is the
// admitting request's context: its span (if any) parents the job's
// "service.job" span, and coalesce-attach events are recorded on its
// trace. The returned coalesced flag reports whether the request
// attached to pre-existing work (inflight or retained). run executes
// the job body once; it is ignored on coalesce. attached reports
// whether waiter accounting is live (false for replays of finished
// jobs).
func (s *Service) admit(ctx context.Context, id, kind string, timeout time.Duration, run runFunc) (j *job, coalesced, attached bool, err error) {
	if s.draining.Load() {
		s.rejections.Inc()
		return nil, false, false, ErrDraining
	}
	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.coalesces.Inc()
		live := existing.attach()
		if obs.TracingEnabled(ctx, s.reg) {
			// Record the coalesce-attach on the incoming request's
			// trace, including how many waiters now share the job.
			existing.mu.Lock()
			waiters := existing.waiters
			existing.mu.Unlock()
			_, cs := obs.StartSpan(ctx, s.reg, "service.coalesce",
				obs.String("job_id", id),
				obs.String("job_trace_id", existing.trace.String()),
				obs.Int("waiters", int64(waiters)))
			cs.End()
		}
		return existing, true, live, nil
	}
	// New work needs an admission token; without one the service is at
	// run+queue capacity and the request is refused rather than parked.
	select {
	case s.tokens <- struct{}{}:
	default:
		s.mu.Unlock()
		s.rejections.Inc()
		return nil, false, false, ErrOverloaded
	}
	_, span := obs.StartSpan(ctx, s.reg, "service.job",
		obs.String("job_id", id), obs.String("kind", kind))
	// The job deliberately outlives the admitting request (coalesced
	// waiters may still want the answer after the first caller leaves),
	// so its context detaches from the request's cancellation; only the
	// trace identity is carried over.
	//numlint:ignore ctxflow job lifetime is decoupled from the admitting request by design
	jctx, cancel := context.WithCancel(obs.ContextWithSpan(context.Background(), span))
	j = &job{
		id:      id,
		kind:    kind,
		ctx:     jctx,
		cancel:  cancel,
		timeout: timeout,
		done:    make(chan struct{}),
		span:    span,
		trace:   span.TraceID(),
	}
	j.waiters = 1
	s.jobs[id] = j
	s.inflight.Add(1)
	s.mu.Unlock()

	s.jobsStarted.Inc()
	if s.reg != nil {
		s.reg.Logger().InfoContext(ctx, "job admitted",
			"job_id", id, "kind", kind, "timeout", timeout.String())
	}
	go s.execute(j, run)
	return j, false, true, nil
}

// execute runs one admitted job: wait for a run slot (or for the job to
// be abandoned), apply the deadline, run the body, publish the outcome,
// and hand back the slot and admission token.
func (s *Service) execute(j *job, run runFunc) {
	defer s.inflight.Done()
	defer func() { <-s.tokens }()

	enqueued := time.Now()
	queueSpan := j.span.Child("service.queue")
	select {
	case s.slots <- struct{}{}:
	case <-j.ctx.Done():
		// Abandoned while queued; surface the cancellation so a later
		// GET /v1/jobs/{id} reports a failed job, not a vanished one.
		queueSpan.End(obs.String("error", j.ctx.Err().Error()))
		s.retire(j, nil, j.ctx.Err())
		return
	}
	defer func() { <-s.slots }()
	queueSpan.End()
	s.queueWait.ObserveDuration(time.Since(enqueued).Seconds())

	s.inflightGauge.Add(1)
	defer s.inflightGauge.Add(-1)

	ctx, cancel := context.WithTimeout(j.ctx, j.timeout)
	defer cancel()
	payload, err := run(ctx, j.setProgress)
	s.retire(j, payload, err)
}

// retire applies retention and then publishes a job outcome: the
// finished job stays addressable (and coalescable) until JobRetention
// newer finishes push it out. Retention comes first so a caller woken
// by the job's done channel already sees every eviction this finish
// causes.
func (s *Service) retire(j *job, payload any, err error) {
	if err != nil {
		j.span.End(obs.String("error", err.Error()))
	} else {
		j.span.End()
	}
	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobRetention {
		evict := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, evict)
	}
	s.mu.Unlock()
	j.finish(payload, err)
}

// lookup returns a live or retained job.
func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// timeoutFor clamps a requested timeout into the configured window.
func (s *Service) timeoutFor(seconds float64) time.Duration {
	if seconds <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(seconds * float64(time.Second))
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// runSolve executes one solve with the job context threaded into
// AnalysisOptions, dispatching on the requested analysis.
func (s *Service) runSolve(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error) {
	opts := req.Options
	opts.Context = ctx
	switch req.Analysis {
	case api.AnalysisExact:
		d, err := s.solver.ExactCDF(req.Battery, req.Workload, req.Times, opts)
		if err != nil {
			return nil, err
		}
		return api.DistributionResult(d), nil
	case api.AnalysisMean:
		mean, err := s.solver.ExpectedLifetime(req.Battery, req.Workload, opts)
		if err != nil {
			return nil, err
		}
		return &api.SolveResult{MeanSeconds: &mean}, nil
	default: // api.AnalysisCDF
		d, err := s.solver.LifetimeDistribution(req.Battery, req.Workload, req.Times, opts)
		if err != nil {
			return nil, err
		}
		return api.DistributionResult(d), nil
	}
}

// runSweep executes one sweep with the job context and progress hook
// threaded into SweepOptions. Per-scenario failures land in the item
// results; only whole-sweep failures (cancellation) are returned.
func (s *Service) runSweep(ctx context.Context, req *api.SweepRequest, progress func(done, total int)) ([]api.SweepItemResult, error) {
	scenarios := make([]batlife.Scenario, len(req.Scenarios))
	for i, sc := range req.Scenarios {
		scenarios[i] = batlife.Scenario{
			Name:     sc.Name,
			Battery:  sc.Battery,
			Workload: sc.Workload,
			DeltaAs:  sc.DeltaAs,
			Times:    sc.Times,
		}
	}
	workers := req.Workers
	if workers < 1 || workers > s.cfg.SweepWorkers {
		workers = s.cfg.SweepWorkers
	}
	results, err := s.solver.Sweep(scenarios, batlife.SweepOptions{
		Workers:       workers,
		Epsilon:       req.Epsilon,
		MaxIterations: req.MaxIterations,
		Context:       ctx,
		Progress:      progress,
	})
	if err != nil {
		return nil, err
	}
	items := make([]api.SweepItemResult, len(results))
	for i, r := range results {
		item := api.SweepItemResult{Index: r.Index, Name: r.Name}
		if r.Err != nil {
			item.Error = toAPIError(r.Err)
		} else {
			item.Result = api.DistributionResult(r.Distribution)
		}
		items[i] = item
	}
	return items, nil
}

// statusOf renders a job's current JobStatus document.
func statusOf(j *job) (*api.JobStatus, error) {
	st := &api.JobStatus{
		ID:    j.id,
		Kind:  j.kind,
		State: j.state(),
		Done:  j.progressDone.Load(),
		Total: j.progressTotal.Load(),
	}
	if !j.trace.IsZero() {
		st.TraceID = j.trace.String()
	}
	j.mu.Lock()
	finished, payload, jerr := j.finished, j.payload, j.err
	j.mu.Unlock()
	if !finished {
		return st, nil
	}
	if jerr != nil {
		st.Error = toAPIError(jerr)
		return st, nil
	}
	resp, err := responseFor(j.id, j.kind, false, payload)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	st.Result = raw
	return st, nil
}

// responseFor wraps a job payload in its endpoint response envelope.
func responseFor(id, kind string, coalesced bool, payload any) (any, error) {
	switch p := payload.(type) {
	case *api.SolveResult:
		return &api.SolveResponse{JobID: id, Coalesced: coalesced, Result: p}, nil
	case []api.SweepItemResult:
		return &api.SweepResponse{JobID: id, Coalesced: coalesced, Results: p}, nil
	default:
		return nil, errInternalf("job %s (%s): unexpected payload %T", id, kind, payload)
	}
}
