package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

func formatInt(v int64) string     { return strconv.FormatInt(v, 10) }
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Attr is one key/value span attribute. Values are strings so that span
// JSON round-trips exactly; use the Int/Float helpers for numbers.
type Attr struct {
	Key, Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: formatInt(value)}
}

// Float builds a float attribute (shortest round-trippable form).
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: formatFloat(value)}
}

// SpanRecord is one completed span, the unit of the trace JSON export.
type SpanRecord struct {
	// TraceID groups all spans of one request; SpanID identifies this
	// span within it. ParentSpanID is empty for root spans (a root may
	// still have a remote parent in another process, carried by the
	// inbound traceparent but not retained here).
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Name identifies the traced stage, e.g. "core.build",
	// "ctmc.transient", "sweep.scenario".
	Name string `json:"name"`
	// StartUnixNs is the wall-clock start in Unix nanoseconds;
	// DurationNs the span length in nanoseconds.
	StartUnixNs int64 `json:"start_unix_ns"`
	DurationNs  int64 `json:"duration_ns"`
	// Attrs carries the key/value attributes recorded at begin and end.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer collects spans. It is safe for concurrent use and bounded: at
// most maxSpans completed spans are retained in a ring, and once the
// ring is full each newly completed span evicts the oldest one — so a
// long-running daemon always holds the most recent traces, and memory
// cannot grow without bound. A nil Tracer is a no-op.
type Tracer struct {
	mu    sync.Mutex
	ring  []SpanRecord // ring storage; capacity fixed at max
	head  int          // next write position
	count int          // live records, <= max
	max   int
	now   func() time.Time
}

// DefaultMaxSpans bounds how many completed spans a Tracer retains.
const DefaultMaxSpans = 16384

// NewTracer returns a Tracer retaining up to DefaultMaxSpans spans.
func NewTracer() *Tracer {
	return &Tracer{max: DefaultMaxSpans, now: time.Now}
}

// SetMaxSpans adjusts the retention bound (values < 1 select 1). When
// shrinking below the current population the oldest spans are evicted.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == t.max {
		return
	}
	old := t.snapshotLocked()
	if excess := len(old) - n; excess > 0 {
		old = old[excess:]
	}
	t.ring = make([]SpanRecord, n)
	copy(t.ring, old)
	t.head = len(old) % n
	t.count = len(old)
	t.max = n
}

// SetClock replaces the tracer's time source — for tests that need
// deterministic timestamps and durations.
//
//numlint:ignore testonly test seam: a deterministic clock
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

func (t *Tracer) clock() time.Time {
	t.mu.Lock()
	now := t.now
	t.mu.Unlock()
	return now()
}

// Span is an in-flight span; End completes it. A nil Span (from a nil
// Tracer or a disabled StartSpan) ignores every method. A Span is owned
// by the goroutine that started it, which alone calls End, but Child
// may be called from any goroutine (the identity fields are
// immutable), which is how concurrent waiters attach events to a shared
// job span.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// TraceID reports the span's trace identity; zero on a nil Span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID reports the span's own identity; zero on a nil Span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Start begins a root span with a freshly minted trace ID. On a nil
// Tracer it returns nil, making the whole Start/Child/End chain free
// when tracing is disabled.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.startSpan(newTraceID(), SpanID{}, name, attrs)
}

// StartRemote begins a root span that continues a trace started in
// another process: the span adopts the given trace ID and records the
// remote span as its parent — the middleware path for inbound W3C
// traceparent headers. A zero trace ID falls back to minting a fresh
// one.
func (t *Tracer) StartRemote(trace TraceID, parent SpanID, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if trace.IsZero() {
		trace = newTraceID()
	}
	return t.startSpan(trace, parent, name, attrs)
}

func (t *Tracer) startSpan(trace TraceID, parent SpanID, name string, attrs []Attr) *Span {
	return &Span{
		tracer: t,
		trace:  trace,
		id:     newSpanID(),
		parent: parent,
		name:   name,
		start:  t.clock(),
		attrs:  attrs,
	}
}

// Child begins a span nested under s, in the same trace.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.startSpan(s.trace, s.id, name, attrs)
}

// End completes the span, appending any final attributes, and records it
// with the tracer.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	end := s.tracer.clock()
	rec := SpanRecord{
		TraceID:     s.trace.String(),
		SpanID:      s.id.String(),
		Name:        s.name,
		StartUnixNs: s.start.UnixNano(),
		DurationNs:  end.Sub(s.start).Nanoseconds(),
	}
	if !s.parent.IsZero() {
		rec.ParentSpanID = s.parent.String()
	}
	if n := len(s.attrs) + len(attrs); n > 0 {
		rec.Attrs = make(map[string]string, n)
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
		for _, a := range attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	t := s.tracer
	t.mu.Lock()
	if t.ring == nil {
		t.ring = make([]SpanRecord, t.max)
	}
	t.ring[t.head] = rec
	t.head = (t.head + 1) % t.max
	// Once the ring is full, the write above evicted the oldest
	// completed span.
	if t.count < t.max {
		t.count++
	}
	t.mu.Unlock()
}

// snapshotLocked copies the live records oldest-first; t.mu must be
// held.
func (t *Tracer) snapshotLocked() []SpanRecord {
	out := make([]SpanRecord, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += t.max
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%t.max])
	}
	return out
}

// Spans returns a copy of the retained completed spans in completion
// order, oldest first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// TraceSpans returns the retained completed spans of one trace, in
// completion order. Spans of a still-running stage are absent until
// their End.
func (t *Tracer) TraceSpans(id TraceID) []SpanRecord {
	if t == nil {
		return nil
	}
	want := id.String()
	var out []SpanRecord
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.head - t.count
	if start < 0 {
		start += t.max
	}
	for i := 0; i < t.count; i++ {
		rec := t.ring[(start+i)%t.max]
		if rec.TraceID == want {
			out = append(out, rec)
		}
	}
	return out
}

// WriteJSON writes the retained spans as one JSON array. A nil Tracer
// writes an empty array, so --trace-out always produces valid JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	if spans == nil {
		spans = []SpanRecord{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}
