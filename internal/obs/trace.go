package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
)

// Trace identity. Every span belongs to exactly one trace: a 128-bit
// TraceID shared by all spans of one request (minted at the first span,
// or adopted from an inbound W3C traceparent header) plus a 64-bit
// SpanID unique to the span. The zero value of either type is invalid —
// W3C reserves all-zero IDs as "absent" — and is used as the "no
// parent" sentinel throughout.

// TraceID is a 128-bit trace identity, rendered as 32 lowercase hex
// digits on the wire.
type TraceID [16]byte

// SpanID is a 64-bit span identity, rendered as 16 lowercase hex
// digits on the wire.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
//
//numlint:hotpath
func (t TraceID) IsZero() bool {
	var zero TraceID
	return t == zero
}

// IsZero reports whether the ID is the invalid all-zero value.
//
//numlint:hotpath
func (s SpanID) IsZero() bool {
	var zero SpanID
	return s == zero
}

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 lowercase hex digits; the all-zero ID is
// rejected (W3C reserves it as invalid).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, errBadTraceID
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || hasUpperHex(s) {
		return TraceID{}, errBadTraceID
	}
	if id.IsZero() {
		return TraceID{}, errBadTraceID
	}
	return id, nil
}

// ParseSpanID parses 16 lowercase hex digits; the all-zero ID is
// rejected.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 2*len(id) {
		return SpanID{}, errBadSpanID
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || hasUpperHex(s) {
		return SpanID{}, errBadSpanID
	}
	if id.IsZero() {
		return SpanID{}, errBadSpanID
	}
	return id, nil
}

// hasUpperHex reports whether s contains an uppercase hex digit. W3C
// traceparent requires lowercase; encoding/hex accepts both, so the
// parser re-checks.
func hasUpperHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'F' {
			return true
		}
	}
	return false
}

// idState is the process-wide ID generator state: a splitmix64 stream
// seeded from crypto/rand at start-up. Splitmix's increment guarantees
// a full 2^64 period, so collisions within a process are impossible for
// span IDs until wrap-around, and the random seed de-correlates
// processes. Not cryptographic — trace IDs are correlation handles, not
// secrets.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	}
}

// nextID draws the next 64-bit ID (splitmix64 output function over an
// atomically advanced Weyl sequence). Never returns 0.
//
//numlint:hotpath
func nextID() uint64 {
	for {
		x := idState.Add(0x9e3779b97f4a7c15)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// newTraceID mints a fresh non-zero 128-bit trace ID.
func newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

// newSpanID mints a fresh non-zero 64-bit span ID.
func newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], nextID())
	return id
}

// W3C Trace Context (https://www.w3.org/TR/trace-context/). The
// traceparent header carries trace identity across service boundaries:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// The parser accepts any version except the reserved ff; versions
// above 00 may carry additional "-"-separated fields, which are
// ignored as the spec requires.

var (
	errBadTraceparent = errors.New("obs: malformed traceparent")
	errBadTraceID     = errors.New("obs: malformed trace id")
	errBadSpanID      = errors.New("obs: malformed span id")
)

const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2 // version-traceid-spanid-flags

// ParseTraceparent parses a W3C traceparent header value into its trace
// ID, parent span ID and flags. Malformed versions, wrong field widths,
// uppercase hex and all-zero trace or span IDs are rejected.
func ParseTraceparent(h string) (TraceID, SpanID, byte, error) {
	if len(h) < traceparentLen {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	version, ok := parseHexByte(h[0:2])
	if !ok || version == 0xff {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	if len(h) > traceparentLen {
		// Only future versions may carry extra fields, and they must be
		// "-"-separated.
		if version == 0 || h[traceparentLen] != '-' {
			return TraceID{}, SpanID{}, 0, errBadTraceparent
		}
	}
	traceID, err := ParseTraceID(h[3:35])
	if err != nil {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	spanID, err := ParseSpanID(h[36:52])
	if err != nil {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	flags, ok := parseHexByte(h[53:55])
	if !ok {
		return TraceID{}, SpanID{}, 0, errBadTraceparent
	}
	return traceID, spanID, flags, nil
}

// parseHexByte decodes exactly two lowercase hex digits.
func parseHexByte(s string) (byte, bool) {
	hi, ok1 := hexNibble(s[0])
	lo, ok2 := hexNibble(s[1])
	return hi<<4 | lo, ok1 && ok2
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// spanKeyType keys the context span slot; the package-level spanKey
// value keeps SpanFromContext allocation-free (a zero-size struct boxes
// to a static interface value).
type spanKeyType struct{}

var spanKey spanKeyType

// ContextWithSpan returns a context carrying the span. Layers pass the
// returned context down so later StartSpan calls nest under it; a nil
// span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	if ctx == nil {
		//numlint:ignore ctxflow nil ctx means the caller has no cancellation chain to preserve
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, s)
}

// SpanFromContext returns the span carried by ctx, or nil. Safe on a
// nil context.
//
//numlint:hotpath
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan begins a span as a child of the span carried by ctx, or a
// root span on reg's tracer when the context carries none, and returns
// a context carrying the new span. With a nil registry and no parent in
// ctx it returns (ctx, nil) — but note the attrs slice is built by the
// caller either way, so zero-alloc disabled paths must guard the call
// on TracingEnabled (see the instrumented packages for the idiom).
func StartSpan(ctx context.Context, reg *Registry, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent != nil {
		s := parent.Child(name, attrs...)
		return ContextWithSpan(ctx, s), s
	}
	if reg == nil {
		return ctx, nil
	}
	s := reg.Tracer().Start(name, attrs...)
	return ContextWithSpan(ctx, s), s
}

// TracingEnabled reports whether StartSpan would record a span — the
// guard instrumented code uses so the disabled path never builds an
// attribute slice.
//
//numlint:hotpath
func TracingEnabled(ctx context.Context, reg *Registry) bool {
	return reg != nil || SpanFromContext(ctx) != nil
}
