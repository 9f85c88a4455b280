package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"batlife"
	"batlife/internal/api"
	"batlife/internal/obs"
)

// Routes returns the daemon's HTTP handler: the v1 API, health probes,
// and — when the service has a telemetry registry — the Prometheus
// /metrics exposition plus the /debug/traces and /debug/pprof/ suite. The whole tree sits behind obs.TraceMiddleware,
// so every request runs under an "http.request" span that honours an
// inbound W3C traceparent header and echoes its trace ID in the
// X-Batlife-Trace-Id response header.
func (s *Service) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /"+api.Version+"/solve", s.instrument("solve", http.HandlerFunc(s.handleSolve)))
	mux.Handle("POST /"+api.Version+"/sweep", s.instrument("sweep", http.HandlerFunc(s.handleSweep)))
	mux.Handle("GET /"+api.Version+"/jobs/{id}", s.instrument("jobs", http.HandlerFunc(s.handleJob)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.reg != nil {
		oh := obs.Handler(s.reg)
		mux.Handle("GET /metrics", oh)
		mux.Handle("GET /debug/", oh)
	}
	return obs.TraceMiddleware(s.reg, mux)
}

// instrument wraps a handler with a request counter and latency
// histogram labelled by endpoint; the latency observation carries the
// request's trace ID as an exemplar, so a slow scrape sample links
// straight to its trace in /debug/traces.
func (s *Service) instrument(name string, h http.Handler) http.Handler {
	if s.reg == nil {
		return h
	}
	endpoint := obs.String("endpoint", name)
	requests := s.reg.CounterWith("service_requests_total", endpoint)
	latency := s.reg.HistogramWith("service_latency_seconds", endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		start := time.Now()
		h.ServeHTTP(w, r)
		latency.ObserveExemplar(time.Since(start).Seconds(),
			obs.SpanFromContext(r.Context()).TraceID())
	})
}

// handleSolve serves POST /v1/solve: decode, validate, fingerprint,
// admit (or coalesce onto identical work), await, respond.
func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	if err := decodeRequest(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, err)
		return
	}
	id, err := req.Fingerprint()
	if err != nil {
		writeErr(w, err)
		return
	}
	j, coalesced, attached, err := s.admit(r.Context(), id, "solve", s.timeoutFor(req.TimeoutSeconds),
		func(ctx context.Context, _ func(done, total int)) (any, error) {
			res, err := s.solve(ctx, &req)
			if err != nil {
				return nil, err
			}
			return res, nil
		})
	if err != nil {
		writeErr(w, err)
		return
	}
	s.respond(r.Context(), w, j, coalesced, attached)
}

// handleSweep serves POST /v1/sweep. With ?stream=1 the response is an
// NDJSON progress stream (api.ProgressEvent per line) ending in a
// result or error event; otherwise it blocks and returns the
// SweepResponse.
func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := decodeRequest(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, err)
		return
	}
	id, err := req.Fingerprint()
	if err != nil {
		writeErr(w, err)
		return
	}
	stream := r.URL.Query().Get("stream") != ""
	j, coalesced, attached, err := s.admit(r.Context(), id, "sweep", s.timeoutFor(req.TimeoutSeconds),
		func(ctx context.Context, progress func(done, total int)) (any, error) {
			items, err := s.sweep(ctx, &req, progress)
			if err != nil {
				return nil, err
			}
			return items, nil
		})
	if err != nil {
		writeErr(w, err)
		return
	}
	if stream {
		s.stream(r.Context(), w, j, coalesced, attached)
		return
	}
	s.respond(r.Context(), w, j, coalesced, attached)
}

// handleJob serves GET /v1/jobs/{id}: the current status of a live or
// retained job, including the full response document once done. With
// ?trace=1 (and telemetry enabled) the status additionally carries the
// job's completed span trees, as served by /debug/traces.
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeErr(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		return
	}
	st, err := statusOf(j)
	if err != nil {
		writeErr(w, err)
		return
	}
	if r.URL.Query().Get("trace") != "" && s.reg != nil && !j.trace.IsZero() {
		trees := obs.BuildTraceTrees(s.reg.Tracer().TraceSpans(j.trace))
		if raw, err := json.Marshal(trees); err == nil {
			st.Trace = raw
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz turns not-ready during drain so load balancers stop
// routing before the listener closes.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// respond awaits the job and writes its response envelope.
func (s *Service) respond(ctx context.Context, w http.ResponseWriter, j *job, coalesced, attached bool) {
	if err := s.await(ctx, j, attached); err != nil {
		writeErr(w, err)
		return
	}
	resp, err := responseFor(j.id, j.kind, coalesced, j.payload)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// await blocks until the job finishes or the caller's context expires.
// attached callers are detached on every path; the last one to abandon
// an unfinished job cancels it.
func (s *Service) await(ctx context.Context, j *job, attached bool) error {
	if attached {
		defer j.detach()
	}
	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stream writes the NDJSON progress stream for a sweep job. The status
// is committed as 200 before the job finishes, so terminal failures
// travel as an in-stream error event rather than an HTTP status.
func (s *Service) stream(ctx context.Context, w http.ResponseWriter, j *job, coalesced, attached bool) {
	if attached {
		defer j.detach()
	}
	ch := j.subscribe()
	defer j.unsubscribe(ch)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev api.ProgressEvent) {
		if enc.Encode(ev) == nil && flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ch:
			emit(api.ProgressEvent{
				Type:  "progress",
				Done:  j.progressDone.Load(),
				Total: j.progressTotal.Load(),
			})
		case <-j.done:
			if j.err != nil {
				emit(api.ProgressEvent{Type: "error", Error: toAPIError(j.err)})
				return
			}
			resp, err := responseFor(j.id, j.kind, coalesced, j.payload)
			if err != nil {
				emit(api.ProgressEvent{Type: "error", Error: toAPIError(err)})
				return
			}
			raw, err := json.Marshal(resp)
			if err != nil {
				emit(api.ProgressEvent{Type: "error", Error: toAPIError(err)})
				return
			}
			emit(api.ProgressEvent{
				Type:   "result",
				Done:   j.progressDone.Load(),
				Total:  j.progressTotal.Load(),
				Result: raw,
			})
			return
		}
	}
}

// decodeRequest strictly decodes a JSON request body; failures are
// argument errors.
func decodeRequest(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: request body: %v", batlife.ErrBadArgument, err)
	}
	return nil
}

// writeJSON writes a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	// The status line is already on the wire; an encode failure here has
	// nowhere better to go than the connection itself.
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps an error through the sentinel taxonomy and writes the
// wire envelope.
func writeErr(w http.ResponseWriter, err error) {
	status, _ := classify(err)
	writeJSON(w, status, api.ErrorResponse{Error: toAPIError(err)})
}
