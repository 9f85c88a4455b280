package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"batlife"
	"batlife/internal/api"
	"batlife/internal/obs"
)

func twoState(t *testing.T) *batlife.Workload {
	t.Helper()
	w, err := batlife.NewWorkload(
		[]batlife.StateSpec{{Name: "idle", CurrentA: 0.008}, {Name: "send", CurrentA: 0.2}},
		[]batlife.TransitionSpec{
			{From: "idle", To: "send", RatePerSec: 0.5},
			{From: "send", To: "idle", RatePerSec: 0.25},
		},
		"idle")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func validSolveReq(t *testing.T) api.SolveRequest {
	t.Helper()
	return api.SolveRequest{
		Battery:  batlife.Battery{CapacityAs: 7200, AvailableFraction: 1},
		Workload: twoState(t),
		Times:    []float64{10000, 20000, 40000},
		Options:  batlife.AnalysisOptions{Delta: 100},
	}
}

func postJSON(t *testing.T, client *http.Client, url string, v any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return er.Error.Code
}

func eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestHTTPSolveGoldenAgainstSolver(t *testing.T) {
	solver := batlife.NewSolver(batlife.SolverOptions{})
	svc := New(Config{Solver: solver, MaxInflight: 2})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var sr api.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.JobID == "" || sr.Coalesced || sr.Result == nil {
		t.Fatalf("response = %+v", sr)
	}

	// The wire result is bit-identical to calling the solver directly.
	want, err := batlife.NewSolver(batlife.SolverOptions{}).LifetimeDistribution(
		req.Battery, req.Workload, req.Times, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Result.EmptyProb) != len(want.EmptyProb) {
		t.Fatalf("curve length %d, want %d", len(sr.Result.EmptyProb), len(want.EmptyProb))
	}
	for i := range want.EmptyProb {
		if sr.Result.EmptyProb[i] != want.EmptyProb[i] {
			t.Errorf("EmptyProb[%d] = %v, want %v", i, sr.Result.EmptyProb[i], want.EmptyProb[i])
		}
	}
	if sr.Result.States != want.States || sr.Result.Iterations != want.Iterations {
		t.Errorf("metadata {%d %d} vs {%d %d}", sr.Result.States, sr.Result.Iterations, want.States, want.Iterations)
	}

	// "mean" and "exact" dispatch to their analyses.
	mean := req
	mean.Analysis = api.AnalysisMean
	mean.Times = nil
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &mean)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mean status = %d, body = %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Result.MeanSeconds == nil || *sr.Result.MeanSeconds <= 0 {
		t.Errorf("mean result = %+v", sr.Result)
	}

	exact := req
	exact.Analysis = api.AnalysisExact
	exact.Options = batlife.AnalysisOptions{}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &exact)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact status = %d, body = %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Result.EmptyProb) != len(exact.Times) {
		t.Errorf("exact curve length = %d", len(sr.Result.EmptyProb))
	}
}

func TestHTTPCoalescedDuplicatesBuildOnce(t *testing.T) {
	// The acceptance pin: N identical concurrent POSTs perform exactly
	// one engine build (Solver.Stats) and one service-level execution.
	const n = 4
	solver := batlife.NewSolver(batlife.SolverOptions{})
	reg := obs.NewRegistry()
	svc := New(Config{Solver: solver, MaxInflight: n, Obs: reg})

	inner := svc.solve
	var calls atomic.Int32
	gate := make(chan struct{})
	svc.solve = func(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error) {
		calls.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, req)
	}

	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	id, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		status int
		body   []byte
	}
	results := make(chan outcome, n)
	post := func() {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
		results <- outcome{resp.StatusCode, body}
	}

	go post()
	eventually(t, func() bool { return calls.Load() == 1 }, "first request did not start")
	for i := 1; i < n; i++ {
		go post()
	}
	// All n requests are mid-flight on one job before it is released.
	eventually(t, func() bool {
		j, ok := svc.lookup(id)
		if !ok {
			return false
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.waiters == n
	}, "requests did not coalesce onto one job")
	close(gate)

	var coalesced int
	jobIDs := make(map[string]bool)
	for i := 0; i < n; i++ {
		out := <-results
		if out.status != http.StatusOK {
			t.Fatalf("status = %d, body = %s", out.status, out.body)
		}
		var sr api.SolveResponse
		if err := json.Unmarshal(out.body, &sr); err != nil {
			t.Fatal(err)
		}
		jobIDs[sr.JobID] = true
		if sr.Coalesced {
			coalesced++
		}
	}
	if len(jobIDs) != 1 || !jobIDs[id] {
		t.Errorf("job IDs = %v, want exactly {%s}", jobIDs, id)
	}
	if coalesced != n-1 {
		t.Errorf("coalesced responses = %d, want %d", coalesced, n-1)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("service executions = %d, want 1", got)
	}
	if st := solver.Stats(); st.Misses != 1 {
		t.Errorf("engine stats = %+v, want exactly one build", st)
	}
	if got := reg.Counter("service_coalesced_total").Value(); got != n-1 {
		t.Errorf("coalesced counter = %d, want %d", got, n-1)
	}
	if got := reg.Counter("service_jobs_total").Value(); got != 1 {
		t.Errorf("jobs counter = %d, want 1", got)
	}
}

func TestHTTPJobStatusAndIdempotentReplay(t *testing.T) {
	svc := New(Config{MaxInflight: 2})
	var calls atomic.Int32
	svc.solve = func(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error) {
		calls.Add(1)
		return stubResult, nil
	}
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var sr api.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// GET /v1/jobs/{id} replays the outcome.
	getResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("job status = %d, body = %s", getResp.StatusCode, body)
	}
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != sr.JobID || st.Kind != "solve" || st.State != api.JobDone || len(st.Result) == 0 {
		t.Fatalf("job status = %+v", st)
	}

	// An identical POST is served from the job store without re-solving.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Coalesced {
		t.Error("replay not marked coalesced")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("solve executions = %d, want 1 (replay must not re-run)", got)
	}

	// Unknown jobs are 404 not_found.
	getResp, err = ts.Client().Get(ts.URL + "/v1/jobs/s-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Errorf("unknown job: status %d code %q", getResp.StatusCode, errCode(t, body))
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	svc := New(Config{MaxInflight: 2})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	// Malformed body.
	resp, err := ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_argument" {
		t.Errorf("malformed body: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	// Unknown top-level field.
	resp, err = ts.Client().Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(`{"battery":{},"typo":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}

	// Validation failure (no times).
	req := validSolveReq(t)
	req.Times = nil
	resp2, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp2.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_argument" {
		t.Errorf("invalid request: status %d code %q", resp2.StatusCode, errCode(t, body))
	}

	// A model whose battery never empties has no finite mean: the
	// request, not the server, is at fault.
	closed, err := batlife.NewWorkload(
		[]batlife.StateSpec{{Name: "on", CurrentA: 0.96}, {Name: "a"}, {Name: "b"}},
		[]batlife.TransitionSpec{
			{From: "on", To: "a", RatePerSec: 0.5},
			{From: "a", To: "b", RatePerSec: 0.3},
			{From: "b", To: "a", RatePerSec: 0.7},
		},
		"on")
	if err != nil {
		t.Fatal(err)
	}
	req = validSolveReq(t)
	req.Analysis, req.Workload, req.Times = api.AnalysisMean, closed, nil
	resp2, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp2.StatusCode != http.StatusBadRequest || errCode(t, body) != "bad_argument" {
		t.Errorf("never-empty mean: status %d code %q body %s", resp2.StatusCode, errCode(t, body), body)
	}

	// A solve refused by the iteration budget is 422 iteration_limit.
	req = validSolveReq(t)
	req.Options = batlife.AnalysisOptions{Delta: 100, MaxIterations: 1}
	resp2, body = postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp2.StatusCode != http.StatusUnprocessableEntity || errCode(t, body) != "iteration_limit" {
		t.Errorf("iteration limit: status %d code %q body %s", resp2.StatusCode, errCode(t, body), body)
	}
}

func TestHTTPClientCancellationMidSolve(t *testing.T) {
	svc, started, _ := gatedService(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	id, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(httpReq)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitStarted(t, started)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no error")
	}

	// The abandoned job was cancelled mid-solve and recorded as failed.
	j, ok := svc.lookup(id)
	if !ok {
		t.Fatal("job vanished")
	}
	if err := awaitDone(t, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	getResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	var st api.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobFailed || st.Error == nil || st.Error.Code != "canceled" {
		t.Errorf("job status after cancellation = %+v", st)
	}
}

func TestHTTPDeadlineExpiry(t *testing.T) {
	svc, started, _ := gatedService(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	req.TimeoutSeconds = 0.03
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		resp, b := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
		status, body = resp.StatusCode, b
	}()
	waitStarted(t, started)
	<-done
	if status != http.StatusGatewayTimeout || errCode(t, body) != "deadline_exceeded" {
		t.Errorf("deadline: status %d code %q", status, errCode(t, body))
	}
}

// TestHTTPMeanDeadline runs a "mean" job whose solve never settles: the
// harvest state charges faster than the drain state discharges, so the
// mean solve would sweep for its whole budget. The job's deadline must
// stop it and free the run slot.
func TestHTTPMeanDeadline(t *testing.T) {
	svc := New(Config{Solver: batlife.NewSolver(batlife.SolverOptions{}), MaxInflight: 1})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	w, err := batlife.NewWorkload(
		[]batlife.StateSpec{{Name: "drain", CurrentA: 0.96}, {Name: "harvest", CurrentA: -2}},
		[]batlife.TransitionSpec{
			{From: "drain", To: "harvest", RatePerSec: 0.5},
			{From: "harvest", To: "drain", RatePerSec: 0.5},
		},
		"drain")
	if err != nil {
		t.Fatal(err)
	}
	req := api.SolveRequest{
		Analysis:       api.AnalysisMean,
		Battery:        batlife.Battery{CapacityAs: 7200, AvailableFraction: 1},
		Workload:       w,
		Options:        batlife.AnalysisOptions{Delta: 25},
		TimeoutSeconds: 0.05,
	}
	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, body) != "deadline_exceeded" {
		t.Errorf("mean past its deadline: status %d body %s", resp.StatusCode, body)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("mean job held its slot %v past a 50 ms deadline", took)
	}
}

func TestHTTPDrain(t *testing.T) {
	// The SIGTERM semantics, driven through BeginDrain (cmd/batlifed
	// wires the signal to exactly this call): inflight jobs complete and
	// are answered, new work is 503 draining, readyz flips.
	svc, started, release := gatedService(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := validSolveReq(t)
	done := make(chan outcome2, 1)
	go func() {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req)
		done <- outcome2{resp.StatusCode, body}
	}()
	waitStarted(t, started)

	svc.BeginDrain()

	other := validSolveReq(t)
	other.Times = []float64{1, 2} // distinct fingerprint
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &other)
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, body) != "draining" {
		t.Errorf("new work during drain: status %d code %q", resp.StatusCode, errCode(t, body))
	}

	ready, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, ready.Body)
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", ready.StatusCode)
	}

	close(release)
	out := <-done
	if out.status != http.StatusOK {
		t.Errorf("inflight job during drain: status %d body %s", out.status, out.body)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

type outcome2 struct {
	status int
	body   []byte
}

func TestHTTPSweepAndPartialFailure(t *testing.T) {
	solver := batlife.NewSolver(batlife.SolverOptions{})
	svc := New(Config{Solver: solver, MaxInflight: 2})
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	good := api.SweepScenario{
		Name:     "good",
		Battery:  batlife.Battery{CapacityAs: 7200, AvailableFraction: 1},
		Workload: twoState(t),
		DeltaAs:  100,
		Times:    []float64{10000, 20000},
	}
	bad := good
	bad.Name = "bad"
	bad.DeltaAs = 7000 // does not divide the well capacity
	req := api.SweepRequest{Scenarios: []api.SweepScenario{good, bad}}

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(sw.Results))
	}
	if sw.Results[0].Result == nil || sw.Results[0].Error != nil || sw.Results[0].Name != "good" {
		t.Errorf("good scenario = %+v", sw.Results[0])
	}
	if sw.Results[1].Error == nil || sw.Results[1].Error.Code != "bad_argument" {
		t.Errorf("bad scenario = %+v", sw.Results[1])
	}

	// The good curve matches a direct solve bit-for-bit.
	want, err := batlife.NewSolver(batlife.SolverOptions{}).LifetimeDistribution(
		good.Battery, good.Workload, good.Times, batlife.AnalysisOptions{Delta: good.DeltaAs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.EmptyProb {
		if sw.Results[0].Result.EmptyProb[i] != want.EmptyProb[i] {
			t.Errorf("EmptyProb[%d] = %v, want %v", i, sw.Results[0].Result.EmptyProb[i], want.EmptyProb[i])
		}
	}
}

func TestHTTPSweepStreaming(t *testing.T) {
	svc := New(Config{MaxInflight: 1})
	subReady := make(chan struct{})
	var once sync.Once
	svc.sweep = func(ctx context.Context, req *api.SweepRequest, progress func(done, total int)) ([]api.SweepItemResult, error) {
		<-subReady
		progress(1, 2)
		progress(2, 2)
		return []api.SweepItemResult{
			{Index: 0, Result: &api.SolveResult{States: 3}},
			{Index: 1, Result: &api.SolveResult{States: 3}},
		}, nil
	}
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	req := api.SweepRequest{Scenarios: []api.SweepScenario{{
		Battery:  batlife.Battery{CapacityAs: 7200, AvailableFraction: 1},
		Workload: twoState(t),
		DeltaAs:  100,
		Times:    []float64{10000},
	}}}
	id, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}

	// Hold the sweep until the streaming handler has subscribed, so the
	// progress ticks are observable on the wire.
	go func() {
		eventually(t, func() bool {
			j, ok := svc.lookup(id)
			if !ok {
				return false
			}
			j.mu.Lock()
			defer j.mu.Unlock()
			return len(j.subs) > 0
		}, "no subscriber appeared")
		once.Do(func() { close(subReady) })
	}()

	resp, err := ts.Client().Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}

	var events []api.ProgressEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("events = %+v, want progress then result", events)
	}
	last := events[len(events)-1]
	if last.Type != "result" || last.Done != 2 || last.Total != 2 {
		t.Fatalf("final event = %+v", last)
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(last.Result, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.JobID != id || len(sw.Results) != 2 {
		t.Errorf("streamed response = %+v", sw)
	}
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "progress" {
			t.Errorf("non-progress event before result: %+v", ev)
		}
		sawProgress = true
	}
	if !sawProgress {
		t.Error("no progress events observed")
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(Config{MaxInflight: 1, Obs: reg})
	svc.solve = func(ctx context.Context, req *api.SolveRequest) (*api.SolveResult, error) {
		return stubResult, nil
	}
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}

	req := validSolveReq(t)
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/solve", &req); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, name := range []string{
		`service_requests_total{endpoint="solve"}`,
		`service_latency_seconds_bucket{endpoint="solve"`,
		"service_jobs_total",
		"service_queue_wait_seconds",
	} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if got := reg.CounterWith("service_requests_total", obs.String("endpoint", "solve")).Value(); got != 1 {
		t.Errorf("request counter = %d, want 1", got)
	}
	if got := reg.Gauge("service_inflight").Value(); got != 0 {
		t.Errorf("inflight gauge after completion = %v, want 0", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for capturing log output
// written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHTTPTracePropagationEndToEnd drives the full acceptance path with
// a real solver: a POST /v1/solve carrying a W3C traceparent must echo
// the same trace ID, produce a span tree spanning service→engine→ctmc
// in /debug/traces, stamp the trace ID onto a log line, and surface the
// trace as an exemplar on the solve-latency histogram in /metrics.
func TestHTTPTracePropagationEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf syncBuffer
	reg.SetLogger(obs.NewLogger(&logBuf, slog.LevelInfo))
	svc := New(Config{MaxInflight: 2, Obs: reg}) // real solver, shared registry
	ts := httptest.NewServer(svc.Routes())
	defer ts.Close()

	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req := validSolveReq(t)
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(raw))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceparentHeader, "00-"+wantTrace+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != wantTrace {
		t.Fatalf("%s = %q, want the inbound trace %q", obs.TraceHeader, got, wantTrace)
	}
	var sr api.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// The span tree must span the whole stack. The job's spans are
	// complete once the response is written (the job retires before the
	// waiter wakes); fetch them by trace ID.
	tresp, err := ts.Client().Get(ts.URL + "/debug/traces?trace=" + wantTrace)
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", tresp.StatusCode, traceBody)
	}
	var trees []obs.TraceTree
	if err := json.Unmarshal(traceBody, &trees); err != nil {
		t.Fatalf("/debug/traces not a tree array: %v\n%s", err, traceBody)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees for one trace, want 1", len(trees))
	}
	names := map[string]bool{}
	var walk func(nodes []*obs.TraceNode)
	walk = func(nodes []*obs.TraceNode) {
		for _, n := range nodes {
			if n.TraceID != wantTrace {
				t.Errorf("node %s has trace %s", n.Name, n.TraceID)
			}
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(trees[0].Spans)
	for _, want := range []string{"service.job", "service.queue", "solver.solve", "engine.build", "ctmc.transient"} {
		if !names[want] {
			t.Errorf("span tree missing %q (have %v)", want, names)
		}
	}

	// A log line carries the trace identity.
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"job admitted"`) || !strings.Contains(logs, `"trace_id":"`+wantTrace+`"`) {
		t.Errorf("log output lacks a trace-stamped admission line:\n%s", logs)
	}

	// The Prometheus exposition carries the trace as an exemplar on the
	// solve-latency histogram.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	var sawExemplar bool
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, `service_latency_seconds_bucket{endpoint="solve"`) &&
			strings.Contains(line, `# {trace_id="`+wantTrace+`"}`) {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Errorf("solve-latency histogram lacks an exemplar for trace %s:\n%s", wantTrace, metrics)
	}

	// GET /v1/jobs/{id}?trace=1 returns the span tree with the status.
	jresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.JobID + "?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("jobs?trace=1: %d %s", jresp.StatusCode, jbody)
	}
	var st api.JobStatus
	if err := json.Unmarshal(jbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.TraceID != wantTrace {
		t.Errorf("job trace_id = %q, want %q", st.TraceID, wantTrace)
	}
	var jobTrees []obs.TraceTree
	if err := json.Unmarshal(st.Trace, &jobTrees); err != nil || len(jobTrees) == 0 {
		t.Fatalf("job status trace field invalid: %v\n%s", err, jbody)
	}
	// Without ?trace=1 the tree is omitted.
	jresp2, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sr.JobID)
	if err != nil {
		t.Fatal(err)
	}
	jbody2, _ := io.ReadAll(jresp2.Body)
	jresp2.Body.Close()
	var st2 api.JobStatus
	if err := json.Unmarshal(jbody2, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Trace != nil {
		t.Errorf("job status without ?trace=1 carries a trace payload")
	}
}
