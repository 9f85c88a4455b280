package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"batlife"
	"batlife/internal/api"
	"batlife/internal/obs"
)

// stubResult is the payload returned by gated stub jobs.
var stubResult = &api.SolveResult{States: 1}

// gatedService returns a service whose solve hook signals `started` on
// entry and blocks until `release` closes (or the job context ends).
func gatedService(t *testing.T, cfg Config) (s *Service, started chan string, release chan struct{}) {
	t.Helper()
	s = New(cfg)
	started = make(chan string, 16)
	release = make(chan struct{})
	s.solve = func(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error) {
		started <- fmt.Sprint(req.Times)
		select {
		case <-release:
			return stubResult, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, started, release
}

// stubRun adapts the service solve hook into an admit run body.
func stubRun(s *Service, req *api.SolveRequest) runFunc {
	return func(ctx context.Context, _ func(done, total int)) (any, error) {
		res, err := s.solve(ctx, req)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

func waitStarted(t *testing.T, started chan string) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job did not start")
	}
}

func awaitDone(t *testing.T, j *job) error {
	t.Helper()
	select {
	case <-j.done:
		return j.err
	case <-time.After(5 * time.Second):
		t.Fatal("job did not finish")
		return nil
	}
}

func TestAdmissionControl(t *testing.T) {
	// One run slot, one queue slot: the third distinct concurrent job is
	// refused immediately with ErrOverloaded.
	reg := obs.NewRegistry()
	s, started, release := gatedService(t, Config{MaxInflight: 1, QueueDepth: 1, Obs: reg})

	req := &api.SolveRequest{}
	j1, coalesced, attached, err := s.admit(context.Background(), "a", "solve", time.Minute, stubRun(s, req))
	if err != nil || coalesced || !attached {
		t.Fatalf("admit a: job=%v coalesced=%v attached=%v err=%v", j1, coalesced, attached, err)
	}
	waitStarted(t, started) // a holds the run slot

	j2, _, _, err := s.admit(context.Background(), "b", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatalf("admit b (queued): %v", err)
	}
	if _, _, _, err := s.admit(context.Background(), "c", "solve", time.Minute, stubRun(s, req)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit c: err = %v, want ErrOverloaded", err)
	}
	if got := reg.Counter("service_rejected_total").Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release)
	if err := awaitDone(t, j1); err != nil {
		t.Errorf("job a: %v", err)
	}
	if err := awaitDone(t, j2); err != nil {
		t.Errorf("job b: %v", err)
	}
	// Capacity freed: admission works again.
	if _, _, _, err := s.admit(context.Background(), "d", "solve", time.Minute, stubRun(s, req)); err != nil {
		t.Errorf("admit d after drain of queue: %v", err)
	}
}

func TestCoalesceAttachesToInflightJob(t *testing.T) {
	reg := obs.NewRegistry()
	s, started, release := gatedService(t, Config{MaxInflight: 2, Obs: reg})
	req := &api.SolveRequest{}

	j1, _, _, err := s.admit(context.Background(), "same", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	j2, coalesced, attached, err := s.admit(context.Background(), "same", "solve", time.Minute, stubRun(s, req))
	if err != nil || !coalesced || !attached {
		t.Fatalf("second admit: coalesced=%v attached=%v err=%v", coalesced, attached, err)
	}
	if j1 != j2 {
		t.Fatal("identical fingerprints landed on distinct jobs")
	}
	close(release)
	if err := awaitDone(t, j1); err != nil {
		t.Fatal(err)
	}
	// Only one execution: the hook was entered once.
	if len(started) != 0 {
		t.Errorf("job body ran %d extra times", len(started))
	}
	if got := reg.Counter("service_coalesced_total").Value(); got != 1 {
		t.Errorf("coalesced counter = %d, want 1", got)
	}
	if got := reg.Counter("service_jobs_total").Value(); got != 1 {
		t.Errorf("jobs counter = %d, want 1", got)
	}

	// Replay after completion: served from retention, no new execution,
	// no waiter accounting.
	j3, coalesced, attached, err := s.admit(context.Background(), "same", "solve", time.Minute, stubRun(s, req))
	if err != nil || !coalesced || attached {
		t.Fatalf("replay: coalesced=%v attached=%v err=%v", coalesced, attached, err)
	}
	if j3.payload != any(stubResult) {
		t.Errorf("replay payload = %v", j3.payload)
	}
}

func TestAbandonedJobIsCancelled(t *testing.T) {
	// When the last waiter walks away from an unfinished job, its context
	// is cancelled so it stops consuming a run slot.
	s, started, _ := gatedService(t, Config{MaxInflight: 1})
	req := &api.SolveRequest{}
	j, _, attached, err := s.admit(context.Background(), "a", "solve", time.Minute, stubRun(s, req))
	if err != nil || !attached {
		t.Fatal(err)
	}
	waitStarted(t, started)
	j.detach()
	if err := awaitDone(t, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned job err = %v, want context.Canceled", err)
	}
	// The slot is free again.
	if _, _, _, err := s.admit(context.Background(), "b", "solve", time.Minute, stubRun(s, req)); err != nil {
		t.Fatalf("admit after abandonment: %v", err)
	}
}

func TestAbandonedQueuedJobReleasesToken(t *testing.T) {
	// A queued job whose waiter leaves never runs; it fails with the
	// cancellation and frees its admission token.
	s, started, release := gatedService(t, Config{MaxInflight: 1, QueueDepth: 1})
	req := &api.SolveRequest{}
	j1, _, _, err := s.admit(context.Background(), "a", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	j2, _, _, err := s.admit(context.Background(), "b", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	j2.detach()
	if err := awaitDone(t, j2); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued abandoned job err = %v, want context.Canceled", err)
	}
	if len(started) != 0 {
		t.Error("abandoned queued job ran anyway")
	}
	close(release)
	if err := awaitDone(t, j1); err != nil {
		t.Fatal(err)
	}
}

func TestJobDeadline(t *testing.T) {
	s, started, _ := gatedService(t, Config{MaxInflight: 1})
	req := &api.SolveRequest{}
	j, _, _, err := s.admit(context.Background(), "a", "solve", 20*time.Millisecond, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if err := awaitDone(t, j); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestDrainSemantics(t *testing.T) {
	// Drain: inflight jobs run to completion, new work is refused with
	// ErrDraining, and Drain returns once idle.
	s, started, release := gatedService(t, Config{MaxInflight: 2})
	req := &api.SolveRequest{}
	j, _, _, err := s.admit(context.Background(), "inflight", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)

	s.BeginDrain()
	if !s.draining.Load() {
		t.Fatal("still admitting work after BeginDrain")
	}
	if _, _, _, err := s.admit(context.Background(), "new", "solve", time.Minute, stubRun(s, req)); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit during drain: err = %v, want ErrDraining", err)
	}

	// Drain blocks while the job is inflight.
	expired, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with inflight job = %v, want deadline exceeded", err)
	}

	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	// The inflight job completed successfully — drain did not cancel it.
	if err := awaitDone(t, j); err != nil {
		t.Errorf("inflight job during drain failed: %v", err)
	}
	if j.payload != any(stubResult) {
		t.Errorf("inflight job payload = %v, want stub result", j.payload)
	}
}

func TestDrainClosesOwnedSolver(t *testing.T) {
	// A service that constructed its own solver releases the solver's
	// persistent SpMV workers on a successful drain; the solver must
	// stay usable (it degrades to serial products) for late stats reads
	// or a drain-then-flush shutdown sequence.
	s := New(Config{MaxInflight: 1})
	if !s.ownsSolver {
		t.Fatal("service with nil Config.Solver does not own its solver")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	w, err := batlife.OnOffWorkload(1, 1, 0.96)
	if err != nil {
		t.Fatal(err)
	}
	b := batlife.Battery{CapacityAs: 7200, AvailableFraction: 1}
	if _, err := s.solver.LifetimeDistribution(b, w, []float64{9000},
		batlife.AnalysisOptions{Delta: 100}); err != nil {
		t.Fatalf("solve after drain: %v", err)
	}

	// A caller-supplied solver is not the service's to close.
	shared := batlife.NewSolver(batlife.SolverOptions{})
	defer shared.Close()
	s2 := New(Config{Solver: shared, MaxInflight: 1})
	if s2.ownsSolver {
		t.Fatal("service with caller-supplied solver claims ownership")
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestRetentionEviction(t *testing.T) {
	s := New(Config{MaxInflight: 2, JobRetention: 2})
	run := func(ctx context.Context, _ func(done, total int)) (any, error) {
		return stubResult, nil
	}
	for _, id := range []string{"a", "b", "c"} {
		j, _, _, err := s.admit(context.Background(), id, "solve", time.Minute, run)
		if err != nil {
			t.Fatal(err)
		}
		if err := awaitDone(t, j); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.lookup("a"); ok {
		t.Error("oldest job survived past retention")
	}
	for _, id := range []string{"b", "c"} {
		if _, ok := s.lookup(id); !ok {
			t.Errorf("job %s evicted while within retention", id)
		}
	}
}

func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"bad argument", batlife.ErrBadArgument, http.StatusBadRequest, "bad_argument"},
		{"wrapped bad argument", fmt.Errorf("decode: %w", batlife.ErrBadArgument), http.StatusBadRequest, "bad_argument"},
		{"iteration limit", fmt.Errorf("solve: %w", batlife.ErrIterationLimit), http.StatusUnprocessableEntity, "iteration_limit"},
		{"overloaded", ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
		{"draining", ErrDraining, http.StatusServiceUnavailable, "draining"},
		{"not found", fmt.Errorf("%w: x", ErrNotFound), http.StatusNotFound, "not_found"},
		{"deadline", fmt.Errorf("ctx: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded"},
		{"canceled", context.Canceled, statusClientGone, "canceled"},
		{"internal", errors.New("boom"), http.StatusInternalServerError, "internal"},
		{"internal sentinel", errInternalf("odd payload %d", 7), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := classify(tc.err)
			if status != tc.status || code != tc.code {
				t.Errorf("classify(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
			}
		})
	}
}

func TestJobStateStrings(t *testing.T) {
	s, started, release := gatedService(t, Config{MaxInflight: 1})
	req := &api.SolveRequest{}
	j, _, _, err := s.admit(context.Background(), "a", "solve", time.Minute, stubRun(s, req))
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, started)
	if st := j.state(); st != api.JobQueued && st != api.JobRunning {
		t.Errorf("inflight state = %q", st)
	}
	close(release)
	if err := awaitDone(t, j); err != nil {
		t.Fatal(err)
	}
	if st := j.state(); st != api.JobDone {
		t.Errorf("finished state = %q, want done", st)
	}
	status, err := statusOf(j)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != api.JobDone || len(status.Result) == 0 {
		t.Errorf("statusOf = %+v, want done with result", status)
	}
}
