package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestParseTraceparentValid(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	trace, span, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if got := trace.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace = %s", got)
	}
	if got := span.String(); got != "00f067aa0ba902b7" {
		t.Errorf("span = %s", got)
	}
	if flags != 0x01 {
		t.Errorf("flags = %#x, want the sampled bit 0x01", flags)
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Versions above 00 may carry extra "-"-separated fields, which are
	// ignored.
	base := "4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	for _, h := range []string{"01-" + base, "01-" + base + "-extra-fields"} {
		if _, _, _, err := ParseTraceparent(h); err != nil {
			t.Errorf("ParseTraceparent(%q) = %v, want nil", h, err)
		}
	}
	// Version 00 is exactly four fields; trailing content is malformed.
	for _, h := range []string{"00-" + base + "-extra", "01-" + base + "x"} {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", h)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // reserved version
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero span
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",  // uppercase span
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e473-000f067aa0ba902b7-01",  // short trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // non-hex flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736--00f067aa0ba902b7-01", // shifted fields
	}
	for _, h := range cases {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", h)
		}
	}
}

// FuzzParseTraceparent checks the parser never panics and only accepts
// values that round-trip through the ID parsers: any accepted header
// yields non-zero, re-parseable IDs.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-more")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Add(strings.Repeat("-", 60))
	f.Fuzz(func(t *testing.T, h string) {
		trace, span, _, err := ParseTraceparent(h)
		if err != nil {
			if !trace.IsZero() || !span.IsZero() {
				t.Fatalf("error path leaked IDs: %v %v", trace, span)
			}
			return
		}
		if trace.IsZero() || span.IsZero() {
			t.Fatalf("accepted all-zero ID from %q", h)
		}
		if _, err := ParseTraceID(trace.String()); err != nil {
			t.Fatalf("trace %q does not re-parse: %v", trace, err)
		}
		if _, err := ParseSpanID(span.String()); err != nil {
			t.Fatalf("span %q does not re-parse: %v", span, err)
		}
	})
}

func TestParseIDRejections(t *testing.T) {
	if _, err := ParseTraceID("00000000000000000000000000000000"); err == nil {
		t.Error("all-zero trace ID accepted")
	}
	if _, err := ParseTraceID("4bf92f3577b34da6"); err == nil {
		t.Error("short trace ID accepted")
	}
	if _, err := ParseSpanID("0000000000000000"); err == nil {
		t.Error("all-zero span ID accepted")
	}
	if _, err := ParseSpanID("00f067aa0ba902b7ff"); err == nil {
		t.Error("long span ID accepted")
	}
}

func TestContextSpanCarriage(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Errorf("empty context carries span %v", s)
	}
	if s := SpanFromContext(nil); s != nil { //nolint:staticcheck // nil-safety is the contract
		t.Errorf("nil context carries span %v", s)
	}
	reg := NewRegistry()
	ctx, root := StartSpan(context.Background(), reg, "root")
	if root == nil {
		t.Fatal("StartSpan with registry returned nil span")
	}
	if got := SpanFromContext(ctx); got != root {
		t.Errorf("SpanFromContext = %v, want the started span", got)
	}
	ctx2, child := StartSpan(ctx, nil, "child")
	if child == nil {
		t.Fatal("StartSpan under a parent span returned nil even without a registry")
	}
	child.End()
	root.End()
	_ = ctx2
	spans := reg.Tracer().Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Errorf("child trace %s != root trace %s", spans[0].TraceID, spans[1].TraceID)
	}
	if spans[0].ParentSpanID != spans[1].SpanID {
		t.Errorf("child parent %s != root span %s", spans[0].ParentSpanID, spans[1].SpanID)
	}
}

func TestStartSpanDisabled(t *testing.T) {
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, nil, "nothing")
	if span != nil || ctx2 != ctx {
		t.Errorf("disabled StartSpan = (%v, %v), want (ctx, nil)", ctx2, span)
	}
	if TracingEnabled(ctx, nil) {
		t.Error("TracingEnabled with nothing to record")
	}
	if !TracingEnabled(ctx, NewRegistry()) {
		t.Error("!TracingEnabled with a registry")
	}
}

// TestDisabledPathAllocs pins the disabled (no registry, untraced
// context) guard path at zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		if TracingEnabled(ctx, nil) {
			t.Fatal("enabled")
		}
		if s := SpanFromContext(ctx); s != nil {
			t.Fatal("span")
		}
		if _, s := StartSpan(ctx, nil, "off"); s != nil {
			t.Fatal("started")
		}
	}); n != 0 {
		t.Errorf("disabled tracing path allocates %v per op, want 0", n)
	}
}

func TestTraceMiddleware(t *testing.T) {
	reg := NewRegistry()
	var sawTrace string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := SpanFromContext(r.Context()); s != nil {
			sawTrace = s.TraceID().String()
		}
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(TraceMiddleware(reg, inner))
	defer srv.Close()

	// Inbound traceparent: the request joins the caller's trace.
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", srv.URL+"/x", nil)
	req.Header.Set(TraceparentHeader, "00-"+wantTrace+"-00f067aa0ba902b7-01")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != wantTrace {
		t.Errorf("%s = %q, want %q", TraceHeader, got, wantTrace)
	}
	if sawTrace != wantTrace {
		t.Errorf("handler saw trace %q, want %q", sawTrace, wantTrace)
	}
	spans := reg.Tracer().TraceSpans(TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6,
		0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36})
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans for inbound trace, want 1", len(spans))
	}
	if spans[0].Name != "http.request" || spans[0].ParentSpanID != "00f067aa0ba902b7" {
		t.Errorf("span = %+v", spans[0])
	}
	if spans[0].Attrs["status"] != "418" {
		t.Errorf("status attr = %q, want 418", spans[0].Attrs["status"])
	}

	// Malformed traceparent: ignored, a fresh root trace is minted.
	req2, _ := http.NewRequest("GET", srv.URL+"/y", nil)
	req2.Header.Set(TraceparentHeader, "not-a-traceparent")
	resp2, err := srv.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	fresh := resp2.Header.Get(TraceHeader)
	if fresh == "" || fresh == wantTrace {
		t.Errorf("fresh trace = %q, want a new non-empty ID", fresh)
	}
	if _, err := ParseTraceID(fresh); err != nil {
		t.Errorf("fresh trace %q does not parse: %v", fresh, err)
	}

	// Nil registry: the middleware is a no-op passthrough.
	if h := TraceMiddleware(nil, inner); h == nil {
		t.Fatal("nil-registry middleware is nil")
	} else if _, ok := h.(http.HandlerFunc); !ok {
		// must be the inner handler unchanged
		t.Errorf("nil-registry middleware wrapped the handler: %T", h)
	}
}
