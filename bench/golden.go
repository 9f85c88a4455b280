package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"batlife"
)

// goldenTol is the largest absolute difference from the golden CDF an
// answer may show at any time point.
const goldenTol = 1e-9

//go:embed golden/*.json
var goldenFiles embed.FS

// goldenSet holds, for one workload, the lifetime CDF of every model in
// its fixed set over the family's full time lattice, as solved at the
// commit that wrote it.
type goldenSet struct {
	Workload string      `json:"workload"`
	DeltaAs  float64     `json:"delta_as"`
	Times    []float64   `json:"times"`
	CDF      [][]float64 `json:"cdf"` // CDF[j][k] at Times[k] for model j

	at map[uint64]int // time bits → lattice position
}

func (g *goldenSet) index() *goldenSet {
	g.at = make(map[uint64]int, len(g.Times))
	for k, t := range g.Times {
		g.at[math.Float64bits(t)] = k
	}
	return g
}

// computeGolden solves every model of w's set over the full lattice.
func computeGolden(w workload) (*goldenSet, error) {
	wl, err := w.fam.workload()
	if err != nil {
		return nil, err
	}
	solver := batlife.NewSolver(batlife.SolverOptions{})
	defer solver.Close()
	g := &goldenSet{Workload: w.name, DeltaAs: w.deltaAs, Times: w.fam.lattice}
	for j := 0; j < models; j++ {
		d, err := solver.LifetimeDistribution(w.fam.battery(j), wl, w.fam.lattice,
			batlife.AnalysisOptions{Delta: w.deltaAs})
		if err != nil {
			return nil, fmt.Errorf("golden %s model %d: %w", w.name, j, err)
		}
		g.CDF = append(g.CDF, d.EmptyProb)
	}
	return g.index(), nil
}

// writeGolden regenerates every workload's golden file under dir.
func writeGolden(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, w := range workloads {
		g, err := computeGolden(w)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadGolden reads the golden file embedded for workload name.
func loadGolden(name string) (*goldenSet, error) {
	data, err := goldenFiles.ReadFile("golden/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden answers for %s: %w (regenerate with -write-golden)", name, err)
	}
	var g goldenSet
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden answers for %s: %w", name, err)
	}
	if len(g.CDF) != models {
		return nil, fmt.Errorf("golden answers for %s: %d models, want %d", name, len(g.CDF), models)
	}
	return g.index(), nil
}

// check reports whether an answer for model j is a valid lifetime CDF
// that matches the golden one: every point in [0,1], monotone in t, and
// within goldenTol of the golden value.
func (g *goldenSet) check(j int, times, probs []float64) error {
	if j < 0 || j >= len(g.CDF) {
		return fmt.Errorf("model %d has no golden answer", j)
	}
	if len(probs) != len(times) {
		return fmt.Errorf("model %d: %d values for %d times", j, len(probs), len(times))
	}
	for i, t := range times {
		k, ok := g.at[math.Float64bits(t)]
		if !ok {
			return fmt.Errorf("model %d: time %v is off the lattice", j, t)
		}
		p := probs[i]
		switch {
		case !(p >= 0 && p <= 1):
			return fmt.Errorf("model %d: CDF(%v) = %v outside [0,1]", j, t, p)
		case i > 0 && p < probs[i-1]:
			return fmt.Errorf("model %d: CDF(%v) = %v below CDF(%v) = %v", j, t, p, times[i-1], probs[i-1])
		case math.Abs(p-g.CDF[j][k]) > goldenTol:
			return fmt.Errorf("model %d: CDF(%v) = %v, golden %v", j, t, p, g.CDF[j][k])
		}
	}
	return nil
}
