package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the HTTP handler behind Serve: Prometheus/OpenMetrics
// text exposition at /metrics, per-trace span trees at /debug/traces
// (?fmt=text for a waterfall), and the net/http/pprof suite under
// /debug/pprof/. Exposed separately so tests can drive it through
// httptest without opening a socket, and so the service router can
// mount the same endpoints.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	RegisterDebugRoutes(mux, reg)
	return mux
}

// RegisterDebugRoutes mounts the observability endpoints on an existing
// mux — the daemon router reuses this so /metrics, /debug/traces and
// /debug/pprof/* behave identically on the service port and the
// standalone metrics port.
func RegisterDebugRoutes(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/traces", TracesHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Server is a running metrics/pprof HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving Handler(reg) on addr (":0" picks a free port)
// and returns immediately; the listener runs until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           Handler(reg),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
	go func() {
		// ErrServerClosed after Close is the expected shutdown path;
		// nothing useful to do with other errors once main has moved on.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr reports the bound address, e.g. "127.0.0.1:43671" after ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }
