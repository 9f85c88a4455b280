package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Errorf("Value = %d, want 42", v)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	if v := nilC.Value(); v != 0 {
		t.Errorf("nil Counter Value = %d, want 0", v)
	}
}

func TestGaugeBasics(t *testing.T) {
	g := NewGauge()
	g.Add(2.5)
	g.Add(-1.25)
	//numlint:ignore floatcmp 2.5 - 1.25 is exact in binary
	if v := g.Value(); v != 1.25 {
		t.Errorf("Value = %v, want 1.25", v)
	}
	var nilG *Gauge
	nilG.Add(1)
	if v := nilG.Value(); v != 0 {
		t.Errorf("nil Gauge Value = %v, want 0", v)
	}
}

func TestCounterGaugeRace(t *testing.T) {
	// Concurrent writers on one counter and one gauge must be race-clean
	// and lose no updates.
	c := NewCounter()
	g := NewGauge()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if v := c.Value(); v != goroutines*perG {
		t.Errorf("Counter = %d, want %d", v, goroutines*perG)
	}
	//numlint:ignore floatcmp small-integer float addition is exact
	if v := g.Value(); v != goroutines*perG {
		t.Errorf("Gauge = %v, want %d", v, goroutines*perG)
	}
}

func TestHistogramRace(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perG; j++ {
				h.Observe(rng.Float64() * 1000)
			}
		}(int64(i))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("Count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Min < 0 || s.Max > 1000 || s.Min > s.Max {
		t.Errorf("Min/Max envelope [%v, %v] out of range", s.Min, s.Max)
	}
}

func TestHistogramEdgeSamples(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0, -1, math.NaN(), 1e300, 1e-300, 42} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	// A NaN sample leaves Min and Max as they were, and the samples
	// after it still update them.
	//numlint:ignore floatcmp exact sample values survive Observe unchanged
	if s.Min != -1 || s.Max != 1e300 {
		t.Errorf("Min/Max = %v/%v after a NaN sample, want -1/1e300", s.Min, s.Max)
	}
	// Min and Max are the exact extreme samples of a random stream.
	rng := rand.New(rand.NewSource(7))
	h = NewHistogram()
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = math.Exp(rng.NormFloat64() * 3)
		h.Observe(samples[i])
	}
	sort.Float64s(samples)
	s = h.Snapshot()
	//numlint:ignore floatcmp exact sample values survive Observe unchanged
	if s.Min != samples[0] || s.Max != samples[len(samples)-1] {
		t.Errorf("Min/Max = %v/%v, want exact %v/%v", s.Min, s.Max, samples[0], samples[len(samples)-1])
	}
	var nilH *Histogram
	nilH.Observe(1)
	if s := nilH.Snapshot(); s.Count != 0 {
		t.Errorf("nil Histogram Count = %d", s.Count)
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name resolved to different counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name resolved to different gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same name resolved to different histograms")
	}
}

func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Tracer() != nil {
		t.Error("nil Registry returned a non-nil handle")
	}
	r.Counter("x").Inc()
	r.Histogram("x").Observe(1)
	r.Tracer().Start("span").End()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("nil WritePrometheus = %q", buf.String())
	}
}

// TestDisabledZeroAlloc pins the disabled fast path: recording through a
// nil registry's handles must not allocate. Attribute construction is
// excluded — building an Attr costs a string either way, which is why
// instrumented code only builds attrs behind its own registry nil-check.
func TestDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	h := r.Histogram("h")
	tr := r.Tracer()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1.5)
		sp := tr.Start("solve")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledCounterZeroAlloc pins the enabled hot path for pre-resolved
// counters — the only instrument on the solver's warm memo path.
func TestEnabledCounterZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(2)
	})
	if allocs != 0 {
		t.Errorf("enabled counter/histogram path allocates %v per op, want 0", allocs)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	// A deterministic clock makes timestamps and durations exact.
	now := time.Unix(1000, 0)
	tr.SetClock(func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	})
	root := tr.Start("sweep", String("grid", "3x2"))
	child := root.Child("solve", Int("index", 0))
	child.End(Float("delta", 18), Int("iterations", 1234))
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []SpanRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(back) != len(want) {
		t.Fatalf("round-trip length %d, want %d", len(back), len(want))
	}
	for i := range want {
		a, b := want[i], back[i]
		if a.TraceID != b.TraceID || a.SpanID != b.SpanID ||
			a.ParentSpanID != b.ParentSpanID || a.Name != b.Name ||
			a.StartUnixNs != b.StartUnixNs || a.DurationNs != b.DurationNs {
			t.Errorf("span %d: %+v != %+v", i, a, b)
		}
		if len(a.Attrs) != len(b.Attrs) {
			t.Errorf("span %d attrs: %v != %v", i, a.Attrs, b.Attrs)
		}
		for k, v := range a.Attrs {
			if b.Attrs[k] != v {
				t.Errorf("span %d attr %s: %q != %q", i, k, b.Attrs[k], v)
			}
		}
	}
	// Completion order: the child ends before the root.
	if want[0].Name != "solve" || want[1].Name != "sweep" {
		t.Errorf("span order %q, %q", want[0].Name, want[1].Name)
	}
	if want[0].ParentSpanID != want[1].SpanID {
		t.Errorf("child ParentSpanID = %s, want root SpanID %s", want[0].ParentSpanID, want[1].SpanID)
	}
	if want[0].TraceID != want[1].TraceID {
		t.Errorf("child TraceID = %s, want root TraceID %s", want[0].TraceID, want[1].TraceID)
	}
	if want[0].DurationNs <= 0 {
		t.Errorf("child duration = %d", want[0].DurationNs)
	}
}

func TestTracerBoundedRetention(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxSpans(4)
	for i := 0; i < 10; i++ {
		tr.Start("s", Int("i", int64(i))).End()
	}
	spans := tr.Spans()
	if n := len(spans); n != 4 {
		t.Fatalf("retained %d spans, want 4", n)
	}
	// The ring evicts oldest-first: the four NEWEST spans survive, in
	// completion order.
	for i, rec := range spans {
		if want := strconv.Itoa(6 + i); rec.Attrs["i"] != want {
			t.Errorf("spans[%d] has i=%s, want %s (newest spans must survive)", i, rec.Attrs["i"], want)
		}
	}
}

func TestLogger(t *testing.T) {
	var r *Registry
	if r.Logger() == nil {
		t.Fatal("nil Registry Logger() = nil, want nop logger")
	}
	r.Logger().Info("into the void") // must not panic

	reg := NewRegistry()
	if reg.Logger() == nil {
		t.Fatal("fresh Registry Logger() = nil, want nop logger")
	}
	var buf bytes.Buffer
	reg.SetLogger(NewLogger(&buf, slog.LevelDebug))
	reg.Logger().Info("solve done", "states", 100)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "solve done" {
		t.Errorf("msg = %v", rec["msg"])
	}
	//numlint:ignore floatcmp JSON numbers decode to float64; 100 is exact
	if rec["states"] != float64(100) {
		t.Errorf("states = %v", rec["states"])
	}
}

func TestServeHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(5)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	// /metrics is the only metrics view: neither the JSON exposition
	// nor its old /debug/vars alias is served.
	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// /metrics serves the Prometheus text exposition.
	resp0, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if resp0.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp0.StatusCode)
	}
	if ct := resp0.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Errorf("/metrics Content-Type = %q, want openmetrics-text", ct)
	}
	if !strings.Contains(string(promBody), "hits_total 5") && !strings.Contains(string(promBody), "hits 5") {
		t.Errorf("/metrics missing hits counter:\n%s", promBody)
	}
	if !strings.HasSuffix(string(promBody), "# EOF\n") {
		t.Errorf("/metrics missing # EOF terminator")
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() == "" {
		t.Error("empty bound address")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
