package main

import "sort"

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json's end_to_end and per_layer entries (TestSpecMatches).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of batlifed sees, printed by an
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_s", "s", "lower"},
	{"allocs_per_req", "count", "lower"},
	{"alloc_bytes_per_req", "B", "lower"},
	{"live_heap_bytes", "B", "lower"},
}

// perLayer are the per-layer metrics of a traced run: medians over the
// replayed calls unless the name says count or ratio.
var perLayer = []metricDef{
	{"sparse.spmv_s", "s", "lower"},
	{"sparse.spmv_allocs", "count", "lower"},
	{"sparse.spmv_serial_s", "s", "lower"},
	{"sparse.spmv_multi_s", "s", "lower"},
	{"sparse.spmv_bytes", "B", "lower"},
	{"sparse.spmv_gbps", "GB/s", "higher"},
	{"sparse.share", "ratio", "lower"},
	{"ctmc.transient_s", "s", "lower"},
	{"ctmc.self_s", "s", "lower"},
	{"ctmc.ns_per_iter", "ns", "lower"},
	{"ctmc.iterations", "count", "lower"},
	{"ctmc.spmvs", "count", "lower"},
	{"ctmc.operator_s", "s", "lower"},
	{"foxglynn.compute_s", "s", "lower"},
	{"foxglynn.window", "count", "lower"},
	{"core.build_s", "s", "lower"},
	{"core.states", "count", "lower"},
	{"core.nnz", "count", "lower"},
	{"engine.fingerprint_s", "s", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"batlife.solve_s", "s", "lower"},
	{"batlife.memo_hit_ratio", "ratio", "higher"},
	{"api.decode_s", "s", "lower"},
	{"api.validate_s", "s", "lower"},
	{"api.fingerprint_s", "s", "lower"},
	{"api.encode_s", "s", "lower"},
	{"service.self_s", "s", "lower"},
	{"service.coalesced_ratio", "ratio", "higher"},
	{"service.rejected_ratio", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// value is one measured metric with the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a percentile for it to
// be reported.
const minBeyond = 10

// tail returns the sorted index of the highest percentile with
// minBeyond samples beyond it, and false when that percentile is not
// above the median: fewer than 2·minBeyond samples report the median
// only.
func tail(n int) (int, bool) {
	return n - 1 - minBeyond, n >= 2*minBeyond
}
