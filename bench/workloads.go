package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"batlife"
	"batlife/internal/api"
)

// family is one of the paper's model families: a battery whose flow
// constant the seed varies, a device workload, and the time lattice
// every request grid is drawn from.
type family struct {
	capacityAs float64
	fraction   float64 // KiBaM c
	workload   func() (*batlife.Workload, error)
	lattice    []float64
	// warm is the short grid of the discarded warm-up request.
	warm []float64
}

// models is the size of each workload's fixed model set: model j uses
// the flow constant 4.5e-5·(1+j/100). Index models itself is the warm-up
// model, outside the measured set.
const models = 40

func flowRate(j int) float64 { return 4.5e-5 * (1 + float64(j)/100) }

func (f family) battery(j int) batlife.Battery {
	return batlife.Battery{CapacityAs: f.capacityAs, AvailableFraction: f.fraction, FlowRate: flowRate(j)}
}

func lattice(from, to, step float64) []float64 {
	var out []float64
	for i := 0; from+float64(i)*step <= to; i++ {
		out = append(out, from+float64(i)*step)
	}
	return out
}

func onOff() (*batlife.Workload, error) { return batlife.OnOffWorkload(1, 1, 0.96) }

var (
	// fig8 is the paper's Fig. 8 two-well on/off model: C = 7200 As,
	// c = 0.625, 0.96 A switched at 1 Hz.
	fig8 = family{capacityAs: 7200, fraction: 0.625, workload: onOff,
		lattice: lattice(6000, 20000, 250), warm: []float64{1000, 2000, 3000}}
	// fig10 is the paper's Fig. 10 simple wireless model on the
	// C = 800 mAh, c = 0.625 battery, over 30 hours.
	fig10 = family{capacityAs: batlife.MilliampHours(800), fraction: 0.625,
		workload: batlife.SimpleWireless, lattice: lattice(1800, 30*3600, 1800), warm: []float64{3600, 7200, 10800}}
	// fig7 is the paper's Fig. 7 one-well on/off model; at Δ = 100 it
	// has 146 states, which makes it the harness tests' stand-in. Its
	// short, coarse lattice keeps the tests' solves short.
	fig7 = family{capacityAs: 7200, fraction: 1, workload: onOff,
		lattice: lattice(4000, 10000, 1000), warm: []float64{1000, 2000, 3000}}
)

// Traffic shapes.
const (
	solveShape  = iota // closed loop, one POST /v1/solve at a time
	sweepShape         // closed loop, one POST /v1/sweep at a time
	replayShape        // open loop over the job store and result memo
)

// workload is one traffic mix the benchmark runs. Why each exists is in
// BENCHMARK.json and README.md.
type workload struct {
	name    string
	fam     family
	deltaAs float64
	shape   int
}

var workloads = []workload{
	{"fig8-cold", fig8, 50, solveShape},
	{"fig10-cold", fig10, batlife.MilliampHours(2), solveShape},
	{"sweep-grouped", fig8, 100, sweepShape},
	{"replay", fig10, batlife.MilliampHours(10), replayShape},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Sweep and replay shapes.
const (
	sweepModels    = 2 // distinct models per sweep
	gridsPerModel  = 3 // time grids per model in a sweep
	replayModels   = 4
	replayGrids    = 4
	replayFreshPct = 5 // share of replay requests that carry a fresh timeout
)

// request is one HTTP request of a workload with what the benchmark
// needs to check its answer: the model index and time grid of each
// result, in response order.
type request struct {
	path  string
	body  []byte
	js    []int
	grids [][]float64
}

// generator turns a seed into a workload's request stream. The server
// only ever sees the bodies it produces; the same seed yields
// byte-identical bodies.
type generator struct {
	w    workload
	seed int64
	rng  *rand.Rand
	perm []int
	next int
	wl   *batlife.Workload
}

func newGenerator(w workload, seed int64) (*generator, error) {
	wl, err := w.fam.workload()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &generator{w: w, seed: seed, rng: rng, perm: rng.Perm(models), wl: wl}, nil
}

// model returns the next model index of the seed's permutation, so
// consecutive requests use distinct models.
func (g *generator) model() int {
	j := g.perm[g.next%models]
	g.next++
	return j
}

// grid draws three ascending lattice points: two interior points and the
// lattice end. Fixing the horizon fixes the uniformisation iteration
// count (≈ q·t_max), so request cost does not vary with the seed.
func (g *generator) grid() []float64 {
	lat := g.w.fam.lattice
	pick := g.rng.Perm(len(lat) - 1)[:2]
	sort.Ints(pick)
	return []float64{lat[pick[0]], lat[pick[1]], lat[len(lat)-1]}
}

// distinctGrids draws n pairwise different grids: the server solves
// duplicate grids of one model once, which would change the work a
// request stands for.
func (g *generator) distinctGrids(n int) [][]float64 {
	var out [][]float64
	seen := map[[2]uint64]bool{}
	for len(out) < n {
		gr := g.grid()
		key := [2]uint64{math.Float64bits(gr[0]), math.Float64bits(gr[1])}
		if !seen[key] {
			seen[key] = true
			out = append(out, gr)
		}
	}
	return out
}

func (g *generator) solve(j int, times []float64) (request, error) {
	body, err := json.Marshal(&api.SolveRequest{
		Battery:  g.w.fam.battery(j),
		Workload: g.wl,
		Times:    times,
		Options:  batlife.AnalysisOptions{Delta: g.w.deltaAs},
	})
	return request{path: "/v1/solve", body: body, js: []int{j}, grids: [][]float64{times}}, err
}

func (g *generator) sweep(js []int, grids [][][]float64) (request, error) {
	req := api.SweepRequest{Workers: runtime.NumCPU()}
	var out request
	for m, j := range js {
		for k, times := range grids[m] {
			req.Scenarios = append(req.Scenarios, api.SweepScenario{
				Name:     fmt.Sprintf("j%d-g%d", j, k),
				Battery:  g.w.fam.battery(j),
				Workload: g.wl,
				DeltaAs:  g.w.deltaAs,
				Times:    times,
			})
			out.js = append(out.js, j)
			out.grids = append(out.grids, times)
		}
	}
	body, err := json.Marshal(&req)
	out.path, out.body = "/v1/sweep", body
	return out, err
}

// measured returns the next request of a closed-loop workload: a solve
// or a sweep on models not used before in this run.
func (g *generator) measured() (request, error) {
	if g.w.shape == sweepShape {
		js := make([]int, sweepModels)
		grids := make([][][]float64, sweepModels)
		for m := range js {
			js[m] = g.model()
			grids[m] = g.distinctGrids(gridsPerModel)
		}
		return g.sweep(js, grids)
	}
	return g.solve(g.model(), g.grid())
}

// warmup returns the discarded set-up request: the workload's shape on
// the model outside the measured set, over a short grid.
func (g *generator) warmup() (request, error) {
	if g.w.shape == sweepShape {
		return g.sweep([]int{models}, [][][]float64{{g.w.fam.warm}})
	}
	return g.solve(models, g.w.fam.warm)
}

// replaySet returns the replay workload's warm bodies: replayModels
// models × replayGrids grids.
func (g *generator) replaySet() ([]request, error) {
	var out []request
	for m := 0; m < replayModels; m++ {
		j := g.model()
		for _, times := range g.distinctGrids(replayGrids) {
			r, err := g.solve(j, times)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// replayStream decides, for each replay request, which warm body it
// sends and whether it is a verbatim replay (served from the job store)
// or carries a fresh timeout_seconds (a new job ID, served by admission
// and the result memo). Decisions are a hash of the seed and the request
// index, so concurrent senders can draw them in any order.
type replayStream struct {
	seed int64
	set  []request
}

// decide returns request i's warm body and whether it is fresh.
func (s *replayStream) decide(i int) (request, bool) {
	// splitmix64 of the seed-offset index.
	h := uint64(s.seed) + uint64(i+1)*0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return s.set[h%uint64(len(s.set))], (h>>32)%100 < replayFreshPct
}

// body returns request i's body. A fresh request appends a
// timeout_seconds unique to its index to the warm body.
func (s *replayStream) body(i int) []byte {
	r, fresh := s.decide(i)
	if !fresh {
		return r.body
	}
	out := make([]byte, 0, len(r.body)+40)
	out = append(out, r.body[:len(r.body)-1]...)
	return append(out, fmt.Sprintf(`,"timeout_seconds":%d.%03d}`, 30+i/1000, i%1000)...)
}
