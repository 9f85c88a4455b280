package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"batlife"
	"batlife/internal/obs"
	"batlife/internal/service"
)

// conns is the most connections the load generator opens: one per CPU.
var conns = runtime.NumCPU()

// stack is the server under test: the batlifed service configured as
// cmd/batlifed configures it by default, behind a loopback HTTP server,
// and the one client the load generator drives it with.
type stack struct {
	reg    *batlife.Telemetry
	solver *batlife.Solver
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

func newStack() *stack {
	reg := batlife.NewTelemetry()
	reg.SetLogger(obs.NewLogger(io.Discard, slog.LevelInfo))
	solver := batlife.NewSolver(batlife.SolverOptions{
		ModelCacheCapacity:  32,
		ResultCacheCapacity: 256,
		Telemetry:           reg,
	})
	svc := service.New(service.Config{Solver: solver, QueueDepth: -1, Obs: reg})
	return &stack{
		reg:    reg,
		solver: solver,
		svc:    svc,
		srv:    httptest.NewServer(svc.Routes()),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
}

// post sends one request and returns the body of a 200 response.
func (s *stack) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// counter reads one of the service's existing instruments.
func (s *stack) counter(name string) int64 { return s.reg.Counter(name).Value() }

// close stops the server, waits for its jobs and releases the solver's
// workers.
func (s *stack) close() error {
	s.client.CloseIdleConnections()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.svc.Drain(ctx)
	s.solver.Close()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
