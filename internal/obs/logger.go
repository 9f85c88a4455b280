package obs

import (
	"context"
	"io"
	"log/slog"
)

// discardHandler is a slog.Handler that drops everything. (slog gained a
// built-in DiscardHandler only in Go 1.24; this keeps the module at its
// declared go 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// nopLogger is shared by every disabled path so Logger never allocates.
var nopLogger = slog.New(discardHandler{})

// NewLogger returns a JSON structured logger writing to w at the given
// level — the logger the CLI threads through the solver when -log is
// set. The handler is trace-aware: records logged with a context-taking
// method (InfoContext, ...) under a traced request automatically carry
// trace_id and span_id attributes.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(TraceLogHandler(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})))
}

// traceLogHandler decorates records with the trace identity carried by
// the logging call's context.
type traceLogHandler struct {
	inner slog.Handler
}

// TraceLogHandler wraps a slog.Handler so every record whose context
// carries a span is stamped with trace_id and span_id attributes — the
// glue that lets an operator jump from a log line to /debug/traces.
func TraceLogHandler(h slog.Handler) slog.Handler {
	if _, ok := h.(traceLogHandler); ok {
		return h
	}
	return traceLogHandler{inner: h}
}

func (h traceLogHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h traceLogHandler) Handle(ctx context.Context, rec slog.Record) error {
	if s := SpanFromContext(ctx); s != nil {
		rec.AddAttrs(
			slog.String("trace_id", s.TraceID().String()),
			slog.String("span_id", s.SpanID().String()),
		)
	}
	return h.inner.Handle(ctx, rec)
}

func (h traceLogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceLogHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h traceLogHandler) WithGroup(name string) slog.Handler {
	return traceLogHandler{inner: h.inner.WithGroup(name)}
}

// SetLogger attaches a structured logger to the registry. No-op on a nil
// Registry.
func (r *Registry) SetLogger(l *slog.Logger) {
	if r == nil {
		return
	}
	r.loggerPtr.Store(l)
}

// Logger returns the registry's logger, or a shared no-op logger when
// the registry is nil or has none attached — callers can log
// unconditionally.
func (r *Registry) Logger() *slog.Logger {
	if r == nil {
		return nopLogger
	}
	if l := r.loggerPtr.Load(); l != nil {
		return l
	}
	return nopLogger
}
