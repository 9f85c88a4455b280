package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter is a no-op (the disabled fast path).
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter, for callers that need counts
// even without a Registry (e.g. engine cache statistics).
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n. No-op on a nil Counter.
//
//numlint:hotpath
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil Counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge. The zero value is ready to use; a
// nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Add atomically adds d to the gauge. No-op on a nil Gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value; zero on a nil Gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: log-linear with histSub sub-buckets per power
// of two, covering [2^histMinExp, 2^histMaxExp). Values outside the
// range land in saturated edge buckets. With histSub = 4 the bucket
// boundaries grow by 2^(1/4) ≈ 1.19, so a quantile estimated from the
// exposed buckets is within ~19% (relative) of the exact order
// statistic — tight enough to size iteration counts, window widths and
// durations, at 8 bytes per bucket.
const (
	histSub    = 4
	histMinExp = -30 // ≈ 1e-9: nanosecond-scale durations in seconds
	histMaxExp = 40  // ≈ 1e12: state counts, iteration totals
	numBuckets = (histMaxExp - histMinExp) * histSub
)

// Histogram is a lock-free histogram of non-negative float64 samples
// with atomic bucket counts. The zero value is ready to use; a nil
// Histogram is a no-op. Negative and NaN samples are counted but
// attributed to the lowest bucket (they never occur in the quantities
// the solver records; the clamp keeps the type total-function).
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; MaxFloat64 when empty
	maxBits atomic.Uint64 // float64 bits; -MaxFloat64 when empty
	buckets [numBuckets + 2]atomic.Int64
	// exemplars holds, per bucket, the slowest trace-attributed sample
	// seen so far — the OpenMetrics exemplar the Prometheus exposition
	// attaches to that bucket's line, linking a latency spike back to
	// its trace.
	exemplars [numBuckets + 2]atomic.Pointer[exemplar]
}

// exemplar is one trace-attributed observation.
type exemplar struct {
	trace string
	value float64
}

// NewHistogram returns a standalone histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.MaxFloat64))
	h.maxBits.Store(math.Float64bits(-math.MaxFloat64))
	return h
}

// bucketIndex maps a sample to its bucket: 0 is the underflow bucket,
// numBuckets+1 the overflow bucket, and 1..numBuckets the log-linear
// interior.
func bucketIndex(v float64) int {
	if !(v > 0) || math.IsNaN(v) {
		return 0
	}
	idx := int(math.Floor(histSub*math.Log2(v))) - histMinExp*histSub
	switch {
	case idx < 0:
		return 0
	case idx >= numBuckets:
		return numBuckets + 1
	}
	return idx + 1
}

// Observe records one sample. No-op on a nil Histogram.
//
//numlint:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// A NaN sample compares false both ways: it moves neither extreme.
	for {
		old := h.minBits.Load()
		if !(v < math.Float64frombits(old)) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if !(v > math.Float64frombits(old)) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration given in seconds; it is Observe
// with a name that documents the unit convention used across the stack.
func (h *Histogram) ObserveDuration(seconds float64) { h.Observe(seconds) }

// ObserveExemplar records one sample and, when the trace ID is valid,
// offers it as the bucket's exemplar. Each bucket keeps its slowest
// trace-attributed sample, so the exposition's exemplars point an
// operator at the trace behind the worst observation in every latency
// band. No-op on a nil Histogram; a zero trace ID degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, trace TraceID) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace.IsZero() {
		return
	}
	slot := &h.exemplars[bucketIndex(v)]
	for {
		old := slot.Load()
		if old != nil && old.value >= v {
			return
		}
		if slot.CompareAndSwap(old, &exemplar{trace: trace.String(), value: v}) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// without synchronisation.
type HistogramSnapshot struct {
	// Count and Sum aggregate every observed sample.
	Count int64
	Sum   float64
	// Min and Max are the exact extreme samples (0 when empty); NaN
	// samples count in Count and Sum but not here.
	Min, Max  float64
	buckets   [numBuckets + 2]int64
	exemplars [numBuckets + 2]*exemplar
}

// Snapshot copies the histogram's current state. On a nil Histogram it
// returns an empty snapshot. Concurrent Observes may tear between count
// and buckets by at most the in-flight samples.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sumBits.Load())
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.exemplars[i] = h.exemplars[i].Load()
	}
	return s
}
