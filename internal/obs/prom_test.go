package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenRegistry builds a deterministic registry exercising every
// exposition feature: bare and labeled counters, label-value escaping,
// a gauge, and a histogram with exemplars and an overflow observation.
func goldenRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("solves_total").Add(3)
	r.CounterWith("requests_total", String("endpoint", "solve")).Add(2)
	r.CounterWith("requests_total", String("endpoint", "sweep")).Inc()
	r.CounterWith("odd_total", String("path", "a\\b\"c\nd")).Inc()
	r.Gauge("inflight").Add(2)
	h := r.Histogram("latency_seconds")
	h.Observe(0.25)
	h.Observe(0.25)
	trace, err := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatal(err)
	}
	h.ObserveExemplar(0.5, trace)
	h.ObserveExemplar(0.4, trace) // slower 0.5 keeps the bucket's exemplar
	h.Observe(1e300)              // overflow bucket
	return r
}

// TestPrometheusGolden pins the exposition byte-for-byte: family
// grouping and ordering, `_total` sample naming, label escaping,
// cumulative buckets, exemplar syntax and the `# EOF` terminator.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE odd counter
odd_total{path="a\\b\"c\nd"} 1
# TYPE requests counter
requests_total{endpoint="solve"} 2
requests_total{endpoint="sweep"} 1
# TYPE solves counter
solves_total 3
# TYPE inflight gauge
inflight 2
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.29730177875068026"} 2
latency_seconds_bucket{le="0.4204482076268573"} 3 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.4
latency_seconds_bucket{le="0.5946035575013605"} 4 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5
latency_seconds_bucket{le="+Inf"} 5
latency_seconds_sum 1e+300
latency_seconds_count 5
# EOF
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestPrometheusNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	var r *Registry
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Errorf("nil registry exposition = %q, want # EOF only", buf.String())
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name     string
	labels   map[string]string
	value    float64
	exemplar string // trace_id, "" when absent
}

// parsePromText is a minimal in-repo parser for the subset of the
// OpenMetrics text format WritePrometheus emits. It fails the test on
// anything it does not understand, so drift in the exposition surfaces
// here as well as in the golden bytes.
func parsePromText(t *testing.T, text string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" || lines[len(lines)-2] != "# EOF" {
		t.Fatalf("exposition must end with a # EOF line")
	}
	for _, line := range lines[: len(lines)-2 : len(lines)-2] {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("bad TYPE line %q", line)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		s := promSample{labels: map[string]string{}}
		body := line
		if i := strings.Index(line, " # "); i >= 0 {
			body = line[:i]
			ex := line[i+3:]
			inner, ok := strings.CutPrefix(ex, `{trace_id="`)
			if !ok {
				t.Fatalf("bad exemplar %q", ex)
			}
			id, val, ok := strings.Cut(inner, `"} `)
			if !ok {
				t.Fatalf("bad exemplar %q", ex)
			}
			if _, err := ParseTraceID(id); err != nil {
				t.Fatalf("exemplar trace id %q: %v", id, err)
			}
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("exemplar value %q: %v", val, err)
			}
			s.exemplar = id
		}
		nameAndLabels, valueStr, ok := strings.Cut(body, " ")
		if !ok {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s.value = v
		s.name = nameAndLabels
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			s.name = nameAndLabels[:i]
			inner := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			for len(inner) > 0 {
				key, rest, ok := strings.Cut(inner, `="`)
				if !ok {
					t.Fatalf("bad label set in %q", line)
				}
				// Unescape up to the closing quote.
				var val strings.Builder
				j := 0
				for ; j < len(rest); j++ {
					if rest[j] == '"' {
						break
					}
					if rest[j] == '\\' && j+1 < len(rest) {
						j++
						switch rest[j] {
						case 'n':
							val.WriteByte('\n')
						default:
							val.WriteByte(rest[j])
						}
						continue
					}
					val.WriteByte(rest[j])
				}
				if j == len(rest) {
					t.Fatalf("unterminated label value in %q", line)
				}
				s.labels[key] = val.String()
				inner = strings.TrimPrefix(rest[j+1:], ",")
			}
		}
		samples = append(samples, s)
	}
	return types, samples
}

// TestPrometheusParses runs the mini-parser over the golden registry's
// exposition and checks the structural invariants: every sample has a
// TYPE, counters carry _total, histogram buckets are cumulative in
// ascending le order and agree with _count, and escaped label values
// round-trip.
func TestPrometheusParses(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	types, samples := parsePromText(t, buf.String())

	if types["latency_seconds"] != "histogram" {
		t.Errorf("latency_seconds type = %q", types["latency_seconds"])
	}
	if types["requests"] != "counter" || types["inflight"] != "gauge" {
		t.Errorf("types = %v", types)
	}

	var buckets []promSample
	var count, sum *promSample
	seen := map[string]bool{}
	for i := range samples {
		s := samples[i]
		base := s.name
		for _, suffix := range []string{"_bucket", "_sum", "_count", "_total"} {
			if b, ok := strings.CutSuffix(s.name, suffix); ok {
				base = b
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("sample %s has no TYPE for family %s", s.name, base)
		}
		if types[base] == "counter" && !strings.HasSuffix(s.name, "_total") {
			t.Errorf("counter sample %s lacks _total", s.name)
		}
		seen[s.name] = true
		switch s.name {
		case "latency_seconds_bucket":
			buckets = append(buckets, s)
		case "latency_seconds_count":
			count = &samples[i]
		case "latency_seconds_sum":
			sum = &samples[i]
		}
	}
	if !seen["odd_total"] {
		t.Fatalf("escaped-label counter missing: %v", seen)
	}
	for _, s := range samples {
		if s.name == "odd_total" && s.labels["path"] != "a\\b\"c\nd" {
			t.Errorf("escaped label round-trip = %q", s.labels["path"])
		}
	}

	if len(buckets) < 2 || count == nil || sum == nil {
		t.Fatalf("histogram series incomplete: %d buckets, count=%v sum=%v", len(buckets), count, sum)
	}
	les := make([]float64, len(buckets))
	for i, b := range buckets {
		le := b.labels["le"]
		if le == "+Inf" {
			les[i] = math.Inf(1)
			continue
		}
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("le %q: %v", le, err)
		}
		les[i] = v
	}
	if !sort.Float64sAreSorted(les) {
		t.Errorf("bucket le values not ascending: %v", les)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].value < buckets[i-1].value {
			t.Errorf("bucket counts not cumulative: %v then %v", buckets[i-1].value, buckets[i].value)
		}
	}
	last := buckets[len(buckets)-1]
	if last.labels["le"] != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", last.labels["le"])
	}
	if last.value != count.value {
		t.Errorf("+Inf bucket %v != count %v", last.value, count.value)
	}
	if count.value != 5 {
		t.Errorf("count = %v, want 5", count.value)
	}

	// The exemplar rides the bucket the trace-attributed sample landed
	// in, keeping the slowest observation.
	var withExemplar int
	for _, b := range buckets {
		if b.exemplar != "" {
			withExemplar++
			if b.exemplar != "4bf92f3577b34da6a3ce929d0e0e4736" {
				t.Errorf("exemplar trace = %s", b.exemplar)
			}
		}
	}
	if withExemplar == 0 {
		t.Error("no bucket carries an exemplar")
	}
}

// TestPrometheusConcurrent hammers a registry while scraping it; the
// mini-parser's invariants must hold on every scrape (torn snapshots
// may under-count, never break cumulativity).
func TestPrometheusConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_seconds")
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(rng.Float64() * 10)
			}
		}
	}()
	defer close(stop)
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		parsePromText(t, buf.String())
	}
}
