package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runs maps workload → metric → values in file order.
type runs map[string]map[string][]float64

func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (float64, float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	word        string
	pairs, wins int
	parent      float64 // parent median
	change      float64 // change median
	iqr         float64 // parent interquartile range
}

// judge applies the comparison rule to paired runs. Run k of the change
// is paired with run k of the parent. The change is better when it wins
// at least 9 in 10 pairs (ties count for neither) and the medians differ
// by more than the parent's interquartile range. A gated metric (one
// with a bound) has regressed when the change's median is worse than
// the parent's by more than bound × the parent's median, and is
// unresolved when the parent's own spread exceeds the bound — unless
// every change run beats every parent run.
func judge(parent, change []float64, higherBetter bool, bound float64, gated bool) verdict {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	v := verdict{pairs: n}
	if n < minPairs {
		v.word = fmt.Sprintf("too few pairs (%d < %d)", n, minPairs)
		return v
	}
	parent, change = parent[:n], change[:n]
	// gain is how much better b is than a, positive when better.
	gain := func(a, b float64) float64 {
		if higherBetter {
			return b - a
		}
		return a - b
	}
	losses := 0
	for k := range parent {
		switch g := gain(parent[k], change[k]); {
		case g > 0:
			v.wins++
		case g < 0:
			losses++
		}
	}
	v.parent, v.change = median(parent), median(change)
	q1, q3 := quartiles(parent)
	v.iqr = q3 - q1
	diff := gain(v.parent, v.change)
	beatsAll := true
	for _, c := range change {
		for _, p := range parent {
			beatsAll = beatsAll && gain(p, c) > 0
		}
	}
	switch {
	case 10*v.wins >= 9*n && diff > v.iqr:
		v.word = "better"
	case gated && v.iqr > bound*math.Abs(v.parent) && !beatsAll:
		v.word = "unresolved"
	case gated && -diff > bound*math.Abs(v.parent):
		v.word = "regressed"
	case !gated && 10*losses >= 9*n && -diff > v.iqr:
		v.word = "worse"
	default:
		v.word = "no change"
	}
	return v
}

// compareRuns prints one verdict per metric × workload for each change
// file against the parent file.
func compareRuns(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) < 2 {
		fmt.Fprintln(stderr, "bench: -compare needs PARENT.jsonl and at least one CHANGE.jsonl")
		return 2
	}
	s, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	parent, err := readRuns(files[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, file := range files[1:] {
		change, err := readRuns(file)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s against %s\n", file, files[0])
		fmt.Fprintf(stdout, "%-14s %-24s %-12s %14s %14s %14s %s\n", "workload", "metric", "verdict", "parent_p50", "change_p50", "parent_iqr", "wins")
		var names []string
		for w := range parent {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			for _, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
				for _, m := range group {
					p, c := parent[w][m.Name], change[w][m.Name]
					if len(p) == 0 || len(c) == 0 {
						continue
					}
					v := judge(p, c, m.Better == "higher", m.Bound, m.Bound > 0)
					fmt.Fprintf(stdout, "%-14s %-24s %-12s %14.6g %14.6g %14.6g %d/%d\n",
						w, m.Name, v.word, v.parent, v.change, v.iqr, v.wins, v.pairs)
				}
			}
		}
	}
	return 0
}
