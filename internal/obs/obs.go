// Package obs is the stdlib-only observability layer for the solver
// stack: atomic counters and gauges, lock-free histograms with quantile
// snapshots, span-style tracing with JSON export, structured logging via
// log/slog, and an HTTP server exposing the Prometheus/OpenMetrics text
// exposition plus net/http/pprof.
//
// The design centres on one rule: a nil *Registry disables everything at
// zero cost. Every accessor on a nil Registry returns a nil handle, and
// every operation on a nil handle (Counter.Add, Histogram.Observe,
// Span.End, ...) is a no-op that performs no allocation, so instrumented
// code needs no build tags or branches beyond the nil checks the handles
// do themselves. Hahn et al.'s transient-reward work (PAPERS.md) singles
// out uniformisation iteration counts and truncation-window sizes as the
// cost drivers on large chains; those are exactly the quantities the
// instrumented packages record here.
//
// Everything the layer counts is deterministic for a deterministic
// workload — cache hits, iteration counts, window sizes, SpMV totals —
// so tests can assert on exact values. Only durations and span
// timestamps depend on the clock, which the Tracer lets tests stub.
package obs

import (
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of metrics plus an optional tracer and
// logger. A nil Registry is the disabled state: all accessors return nil
// handles whose methods are no-ops. Registries are safe for concurrent
// use; handle lookup takes a read lock, so callers on hot paths should
// resolve handles once and reuse them (see the per-package metric
// bundles in internal/engine, internal/ctmc and internal/sparse).
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	tracer    *Tracer
	loggerPtr atomic.Pointer[slog.Logger]
}

// NewRegistry returns an enabled Registry with an attached Tracer.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   NewTracer(),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// Registry returns a nil Counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = NewCounter()
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// Registry returns a nil Gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = NewGauge()
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// Registry returns a nil Histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// metricKey renders a metric name plus labels as the registry key:
// `name{k1="v1",k2="v2"}` with label keys sorted and values
// Prometheus-escaped. The key doubles as the series identity in both the
// JSON view and the Prometheus exposition, so escaping happens once,
// here. With no labels the key is the bare name.
func metricKey(name string, labels []Attr) string {
	if len(labels) == 0 {
		return name
	}
	sorted := make([]Attr, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies Prometheus label-value escaping: backslash,
// double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// CounterWith returns the counter for the labeled series, creating it on
// first use. Label keys are sorted, so call-site order does not matter.
// Resolve handles once and reuse them — key construction is not free.
func (r *Registry) CounterWith(name string, labels ...Attr) *Counter {
	if r == nil {
		return nil
	}
	return r.Counter(metricKey(name, labels))
}

// HistogramWith returns the histogram for the labeled series.
func (r *Registry) HistogramWith(name string, labels ...Attr) *Histogram {
	if r == nil {
		return nil
	}
	return r.Histogram(metricKey(name, labels))
}

// Tracer returns the registry's tracer, or nil for a nil Registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}
