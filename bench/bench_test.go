package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, n := range []int{1, 10, 19} {
		if _, ok := tail(n); ok {
			t.Errorf("tail(%d) reports a percentile; fewer than 20 samples give the median only", n)
		}
	}
	if k, ok := tail(20); !ok || k != 9 {
		t.Errorf("tail(20) = %d, %v; want index 9 (ten samples beyond it)", k, ok)
	}

	notesOf := func(n int) map[string]value {
		var r result
		samples := make([]sample, n)
		for i := range samples {
			samples[i] = sample{done: time.Duration(i+1) * time.Second}
		}
		r.noteTail(samples, "")
		return r.Info
	}
	if notes := notesOf(19); len(notes) != 0 {
		t.Errorf("19 samples: notes %v, want no tail", notes)
	}
	if notes := notesOf(20); notes["latency_p50_s"].Value != 10 {
		t.Errorf("20 samples: notes %v, want p50 = 10 with ten beyond", notes)
	}
	if notes := notesOf(1000); notes["latency_p99_s"].Value != 990 {
		t.Errorf("1000 samples: notes %v, want p99 = 990", notes)
	}
}

// TestOpenLoopTimesFromDue drives a server slower than the schedule:
// requests queue for the one connection, and their latency must count
// the wait from when each was due, not only the service time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 4 * time.Millisecond
	send := func(int) ([]byte, error) { time.Sleep(service); return nil, nil }
	ok := func(int, []byte, error) bool { return true }
	samples := openLoop(500, 40*time.Millisecond, 1, send, ok) // due every 2 ms
	if len(samples) != 20 {
		t.Fatalf("%d samples, want 20", len(samples))
	}
	for i, s := range samples {
		if s.latency() < s.service() || s.sent < s.due {
			t.Fatalf("sample %d: latency %v below service %v, or sent %v before due %v", i, s.latency(), s.service(), s.sent, s.due)
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if late := last.sent - last.due; late < 30*time.Millisecond {
		t.Errorf("last request %v late; the backlog of a 2× overloaded server should make it ≥ 30ms", late)
	}
	if last.latency() < last.service()+30*time.Millisecond {
		t.Errorf("last latency %v does not count its %v wait", last.latency(), last.sent-last.due)
	}
	if first.sent-first.due > 5*time.Millisecond {
		t.Errorf("first request %v late with an idle server", first.sent-first.due)
	}

	// A fast server keeps up: nothing waits long.
	fast := openLoop(500, 40*time.Millisecond, 1, func(int) ([]byte, error) { return nil, nil }, ok)
	for i, s := range fast {
		if late := s.sent - s.due; late > 5*time.Millisecond {
			t.Errorf("sample %d %v late against an idle server", i, late)
		}
	}
}

func TestPerSecondDropsPartialSecond(t *testing.T) {
	var samples []sample
	for _, ms := range []int{100, 900, 1100, 1200, 1300, 2500} {
		samples = append(samples, sample{done: time.Duration(ms) * time.Millisecond})
	}
	got := perSecond(samples)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("perSecond = %v, want [2 3]", got)
	}
}

func TestClosedLoopConnections(t *testing.T) {
	var mu sync.Mutex
	busy, peak := 0, 0
	send := func(int) ([]byte, error) {
		mu.Lock()
		busy++
		peak = max(peak, busy)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		busy--
		mu.Unlock()
		return nil, nil
	}
	samples := closedLoop(20*time.Millisecond, 2, send, func(int, []byte, error) bool { return true })
	if peak != 2 || len(samples) < 10 {
		t.Errorf("peak %d concurrent, %d samples; want 2 connections kept busy", peak, len(samples))
	}
	one := closedLoop(time.Nanosecond, 1, send, func(int, []byte, error) bool { return true })
	if len(one) != 1 {
		t.Errorf("a closed loop shorter than one request sent %d, want 1", len(one))
	}
}

func TestGoldenTolerance(t *testing.T) {
	g := (&goldenSet{Times: []float64{10, 20, 30}, CDF: [][]float64{{0.1, 0.5, 0.9}}}).index()
	times := []float64{10, 30}
	cases := []struct {
		name  string
		times []float64
		probs []float64
		ok    bool
	}{
		{"exact", times, []float64{0.1, 0.9}, true},
		{"within tolerance", times, []float64{0.1 + 0.9e-9, 0.9 - 0.9e-9}, true},
		{"beyond tolerance", times, []float64{0.1 + 1.1e-9, 0.9}, false},
		{"not monotone", []float64{10, 20}, []float64{0.5, 0.4}, false},
		{"above one", []float64{30}, []float64{1.5}, false},
		{"NaN", []float64{30}, []float64{math.NaN()}, false},
		{"off the lattice", []float64{15}, []float64{0.3}, false},
		{"length mismatch", times, []float64{0.1}, false},
	}
	for _, c := range cases {
		if err := g.check(0, c.times, c.probs); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if g.check(1, times, []float64{0.1, 0.9}) == nil {
		t.Error("a model without a golden answer passed")
	}
}

func TestSeedDeterminism(t *testing.T) {
	bodies := func(w workload, seed int64) []byte {
		g, err := newGenerator(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		var all [][]byte
		if w.shape == replayShape {
			set, err := g.replaySet()
			if err != nil {
				t.Fatal(err)
			}
			s := &replayStream{seed: seed, set: set}
			for i := 0; i < 500; i++ {
				all = append(all, s.body(i))
			}
		} else {
			for i := 0; i < 5; i++ {
				r, err := g.measured()
				if err != nil {
					t.Fatal(err)
				}
				all = append(all, r.body)
			}
			r, err := g.warmup()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, r.body)
		}
		return bytes.Join(all, []byte{'\n'})
	}
	for _, w := range workloads {
		a, b, c := bodies(w, 7), bodies(w, 7), bodies(w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different bodies on two runs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical bodies", w.name)
		}
	}
}

// TestSmokeEachShape runs every workload shape for one request (the open
// loop for a few) on the Fig. 7 one-well model at Δ = 100, untraced and
// traced, and checks that each run is correct and reports its metrics.
func TestSmokeEachShape(t *testing.T) {
	golden, err := computeGolden(workload{name: "fig7", fam: fig7, deltaAs: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range workloads {
		for _, trace := range []bool{false, true} {
			w := base
			w.fam, w.deltaAs = fig7, 100
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				r, err := runWorkload(w, 1, options{dur: 10 * time.Millisecond, trace: trace, golden: golden})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s missing or not finite (%v)", d.name, v)
					}
				}
				if trace {
					if r.Metrics["core.states"].Value != 146 {
						t.Errorf("core.states = %v, want 146", r.Metrics["core.states"].Value)
					}
					if len(r.tracer.spans) == 0 {
						t.Error("no spans recorded")
					}
				}
			})
		}
	}
}

// TestSpecMatches pins BENCHMARK.json to the metrics the program prints.
func TestSpecMatches(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(spec), len(defs))
		}
		for i, d := range defs {
			if m := spec[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer)
	var setup float64
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(raw.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if raw.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, raw.Workloads[i].Name, w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"faster on every pair", steady, scale(steady, 0.9), false, 0.1, "better"},
		{"higher is better", steady, scale(steady, 1.1), true, 0.1, "better"},
		{"within the bound", steady, scale(steady, 1.05), false, 0.1, "no change"},
		{"beyond the bound", steady, scale(steady, 1.2), false, 0.1, "regressed"},
		{"spread wider than the bound", noisy, scale(noisy, 1.01), false, 0.1, "unresolved"},
		{"ungated and worse", steady, scale(steady, 1.2), false, 0, "worse"},
		{"too few pairs", steady[:9], steady[:9], false, 0.1, "too few pairs (9 < 10)"},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.higher, c.bound, c.bound > 0).word; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
