package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"time"

	"batlife"
	"batlife/internal/api"
	"batlife/internal/core"
	"batlife/internal/ctmc"
	"batlife/internal/engine"
	"batlife/internal/foxglynn"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/sparse"
)

// spmvReps is how many products each SpMV timing averages over.
const spmvReps = 256

// layers replays requests through the public functions the server's
// request path calls, in the server's order, on a private stack built
// like the server's. Each call runs under a bench-owned span; nothing
// inside the program is instrumented for it.
type layers struct {
	tr     *tracer
	golden *goldenSet
	solver *batlife.Solver
	pool   *sparse.Pool
	// jobs is the private stack's job store: a request whose
	// fingerprint is here is answered without solving, as the server
	// answers replays of retained jobs.
	jobs map[string]*api.SolveResult
	// measured marks models whose numerical layers were already timed.
	measured map[int]bool
	// calls holds, per span name, one value per call (seconds, or a
	// count for the count metrics).
	calls map[string][]float64
}

func newLayers(tr *tracer, golden *goldenSet) *layers {
	reg := batlife.NewTelemetry()
	reg.SetLogger(obs.NewLogger(io.Discard, slog.LevelInfo))
	return &layers{
		tr:     tr,
		golden: golden,
		solver: batlife.NewSolver(batlife.SolverOptions{
			ModelCacheCapacity:  32,
			ResultCacheCapacity: 256,
			Telemetry:           reg,
		}),
		pool:     sparse.NewPool(0),
		jobs:     map[string]*api.SolveResult{},
		measured: map[int]bool{},
		calls:    map[string][]float64{},
	}
}

func (l *layers) close() {
	l.solver.Close()
	l.pool.Close()
}

func (l *layers) add(name string, v float64) { l.calls[name] = append(l.calls[name], v) }

// timed runs fn under span name and records its duration.
func (l *layers) timed(name string, parent, req int, fn func() error) (time.Duration, error) {
	id := l.tr.begin(name, parent, req)
	err := fn()
	d := l.tr.end(id)
	l.add(name, d.Seconds())
	return d, err
}

// path runs the server's request-path calls in order and returns their
// summed time; the rest of the HTTP latency is the service's own.
func (l *layers) path(parent, req int, steps []pathStep) (time.Duration, error) {
	var sum time.Duration
	for _, s := range steps {
		if s.skip != nil && s.skip() {
			continue
		}
		d, err := l.timed(s.name, parent, req, s.fn)
		sum += d
		if err != nil {
			return sum, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return sum, nil
}

type pathStep struct {
	name string
	fn   func() error
	skip func() bool
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// warm prepares the private stack as set-up prepared the server's:
// every body solved once and its job retained.
func (l *layers) warm(set []request) error {
	for _, r := range set {
		var sr api.SolveRequest
		if err := decodeStrict(r.body, &sr); err != nil {
			return err
		}
		id, err := sr.Fingerprint()
		if err != nil {
			return err
		}
		d, err := l.solver.LifetimeDistribution(sr.Battery, sr.Workload, sr.Times, sr.Options)
		if err != nil {
			return err
		}
		l.jobs[id] = api.DistributionResult(d)
	}
	return nil
}

// replaySolve replays one POST /v1/solve whose HTTP call took httpTime
// on the server side.
func (l *layers) replaySolve(req int, r request, httpTime time.Duration) error {
	root := l.tr.begin("replay", 0, req)
	defer l.tr.end(root)
	var (
		sr  api.SolveRequest
		id  string
		res *api.SolveResult
	)
	stored := func() bool {
		p, ok := l.jobs[id]
		res = p
		return ok
	}
	spent, err := l.path(root, req, []pathStep{
		{name: "api.decode", fn: func() error { return decodeStrict(r.body, &sr) }},
		{name: "api.validate", fn: func() error { return sr.Validate() }},
		{name: "api.fingerprint", fn: func() (err error) { id, err = sr.Fingerprint(); return err }},
		{name: "batlife.solve", skip: stored, fn: func() error {
			d, err := l.solver.LifetimeDistribution(sr.Battery, sr.Workload, sr.Times, sr.Options)
			if err != nil {
				return err
			}
			res = api.DistributionResult(d)
			l.jobs[id] = res
			return nil
		}},
		{name: "api.encode", fn: func() error {
			_, err := json.Marshal(&api.SolveResponse{JobID: id, Result: res})
			return err
		}},
	})
	if err != nil {
		return err
	}
	l.add("service.self", (httpTime - spent).Seconds())
	if err := l.golden.check(r.js[0], r.grids[0], res.EmptyProb); err != nil {
		return fmt.Errorf("replayed solve: %w", err)
	}
	if l.measured[r.js[0]] {
		return nil
	}
	l.measured[r.js[0]] = true
	transient, iters, spmvs, err := l.numerics(root, req, sr.Battery, sr.Workload, sr.Options.Delta, sr.Options.Epsilon, r.js[0], [][]float64{sr.Times})
	if err != nil {
		return err
	}
	l.add("ctmc.transient", transient.Seconds())
	l.add("ctmc.iterations", float64(iters))
	l.add("ctmc.spmvs", float64(spmvs))
	return nil
}

// replaySweep replays one POST /v1/sweep.
func (l *layers) replaySweep(req int, r request, httpTime time.Duration) error {
	root := l.tr.begin("replay", 0, req)
	defer l.tr.end(root)
	var (
		sr    api.SweepRequest
		id    string
		items []api.SweepItemResult
	)
	spent, err := l.path(root, req, []pathStep{
		{name: "api.decode", fn: func() error { return decodeStrict(r.body, &sr) }},
		{name: "api.validate", fn: func() error { return sr.Validate() }},
		{name: "api.fingerprint", fn: func() (err error) { id, err = sr.Fingerprint(); return err }},
		{name: "batlife.solve", fn: func() error {
			var err error
			items, err = l.sweep(&sr)
			return err
		}},
		{name: "api.encode", fn: func() error {
			_, err := json.Marshal(&api.SweepResponse{JobID: id, Results: items})
			return err
		}},
	})
	if err != nil {
		return err
	}
	l.add("service.self", (httpTime - spent).Seconds())
	for i, it := range items {
		if err := l.golden.check(r.js[i], r.grids[i], it.Result.EmptyProb); err != nil {
			return fmt.Errorf("replayed sweep scenario %d: %w", i, err)
		}
	}
	// The sweep solves each model's grids as one group; time the same
	// groups, and report the request's totals.
	var transient time.Duration
	var iters, spmvs int
	for g := 0; g < len(sr.Scenarios); g += gridsPerModel {
		sc := sr.Scenarios[g]
		grids := make([][]float64, gridsPerModel)
		for k := range grids {
			grids[k] = sr.Scenarios[g+k].Times
		}
		d, it, sp, err := l.numerics(root, req, sc.Battery, sc.Workload, sc.DeltaAs, sr.Epsilon, r.js[g], grids)
		if err != nil {
			return err
		}
		transient += d
		iters += it
		spmvs += sp
	}
	l.add("ctmc.transient", transient.Seconds())
	l.add("ctmc.iterations", float64(iters))
	l.add("ctmc.spmvs", float64(spmvs))
	return nil
}

// sweep runs the solver call of the service's sweep handler.
func (l *layers) sweep(sr *api.SweepRequest) ([]api.SweepItemResult, error) {
	scenarios := make([]batlife.Scenario, len(sr.Scenarios))
	for i, sc := range sr.Scenarios {
		scenarios[i] = batlife.Scenario{Name: sc.Name, Battery: sc.Battery, Workload: sc.Workload, DeltaAs: sc.DeltaAs, Times: sc.Times}
	}
	workers := sr.Workers
	if workers < 1 || workers > runtime.NumCPU() {
		workers = runtime.NumCPU()
	}
	results, err := l.solver.Sweep(scenarios, batlife.SweepOptions{
		Workers: workers, Epsilon: sr.Epsilon, MaxIterations: sr.MaxIterations,
	})
	if err != nil {
		return nil, err
	}
	items := make([]api.SweepItemResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, res.Err)
		}
		items[i] = api.SweepItemResult{Index: res.Index, Name: res.Name, Result: api.DistributionResult(res.Distribution)}
	}
	return items, nil
}

// kibamrm rebuilds the internal model the server solves from a decoded
// battery and workload, through the workload's public specification.
func kibamrm(b batlife.Battery, w *batlife.Workload) (mrm.KiBaMRM, error) {
	states, transitions, initial := w.Spec()
	var cb ctmc.Builder
	for _, s := range states {
		cb.State(s.Name)
	}
	for _, t := range transitions {
		cb.Transition(t.From, t.To, t.RatePerSec)
	}
	chain, err := cb.Build()
	if err != nil {
		return mrm.KiBaMRM{}, err
	}
	currents := make([]float64, chain.NumStates())
	charging := false
	for _, s := range states {
		currents[chain.Index(s.Name)] = s.CurrentA
		charging = charging || s.CurrentA < 0
	}
	return mrm.KiBaMRM{
		Workload:      chain,
		Currents:      currents,
		Initial:       chain.PointDistribution(chain.Index(initial)),
		Battery:       kibam.Params{Capacity: b.CapacityAs, C: b.AvailableFraction, K: b.FlowRate},
		AllowCharging: charging,
	}, nil
}

// numerics times the numerical layers below the solver facade on model
// j, in the order a cold solve runs them: fingerprint, expansion,
// uniformised operator, Fox–Glynn windows, the transient solve of grids
// (batched when there are several, as the sweep does), and SpMV on the
// transposed generator. It returns the transient time and the summed
// iterations and SpMVs of its results.
func (l *layers) numerics(parent, req int, b batlife.Battery, w *batlife.Workload, delta, eps float64, j int, grids [][]float64) (time.Duration, int, int, error) {
	model, err := kibamrm(b, w)
	if err != nil {
		return 0, 0, 0, err
	}
	var (
		x  *core.Expanded
		u  *ctmc.Uniformized
		rs []*core.Result
	)
	if _, err := l.path(parent, req, []pathStep{
		{name: "engine.fingerprint", fn: func() error { engine.Fingerprint(model, delta, core.Options{}); return nil }},
		{name: "core.build", fn: func() (err error) { x, err = core.Build(model, delta, core.Options{}); return err }},
		{name: "ctmc.operator", fn: func() (err error) { u, err = x.Operator(); return err }},
	}); err != nil {
		return 0, 0, 0, err
	}
	l.add("core.states", float64(x.NumStates()))
	l.add("core.nnz", float64(x.NNZ()))
	for _, grid := range grids {
		for _, t := range grid {
			var fw *foxglynn.Weights
			if _, err := l.timed("foxglynn.compute", parent, req, func() (err error) {
				fw, err = foxglynn.Compute(u.Rate()*t, eps)
				return err
			}); err != nil {
				return 0, 0, 0, err
			}
			l.add("foxglynn.window", float64(fw.Right-fw.Left+1))
		}
	}
	so := core.SolveOptions{Epsilon: eps, Pool: l.pool}
	id := l.tr.begin("ctmc.transient", parent, req)
	if len(grids) == 1 {
		var r *core.Result
		r, err = x.LifetimeCDFOpts(grids[0], so)
		rs = []*core.Result{r}
	} else {
		rs, err = x.LifetimeCDFBatchOpts(grids, so)
	}
	transient := l.tr.end(id)
	if err != nil {
		return 0, 0, 0, err
	}
	var iters, spmvs int
	for k, r := range rs {
		if err := l.golden.check(j, grids[k], r.EmptyProb); err != nil {
			return 0, 0, 0, fmt.Errorf("replayed transient: %w", err)
		}
		iters += r.Iterations
		spmvs += r.SpMVs
	}
	return transient, iters, spmvs, l.spmv(parent, req, x.Generator().Transpose())
}

// spmv times spmvReps products on m (the transposed generator, which has
// Pᵀ's sparsity pattern) through the pool, the serial kernel and the
// three-vector batched kernel, and counts the pool's allocations per
// product.
func (l *layers) spmv(parent, req int, m *sparse.CSR) error {
	n := m.Rows()
	xs := make([][]float64, 3)
	dsts := make([][]float64, 3)
	for k := range xs {
		xs[k], dsts[k] = make([]float64, n), make([]float64, n)
		for i := range xs[k] {
			xs[k][i] = float64(k+1) / float64(n)
		}
	}
	kernels := []struct {
		name string
		fn   func() error
	}{
		{"sparse.spmv", func() error { return l.pool.MulVec(m, dsts[0], xs[0]) }},
		{"sparse.spmv_serial", func() error { return m.MulVec(dsts[0], xs[0]) }},
		{"sparse.spmv_multi", func() error { return l.pool.MulVecMulti(m, dsts, xs) }},
	}
	for _, k := range kernels {
		for i := 0; i < 8; i++ { // start the pool's workers outside the count
			if err := k.fn(); err != nil {
				return err
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		id := l.tr.begin(k.name, parent, req)
		start := time.Now()
		for i := 0; i < spmvReps; i++ {
			if err := k.fn(); err != nil {
				return err
			}
		}
		d := time.Since(start)
		l.tr.end(id)
		runtime.ReadMemStats(&ms)
		l.add(k.name, d.Seconds()/spmvReps)
		if k.name == "sparse.spmv" {
			l.add("sparse.spmv_allocs", float64(ms.Mallocs-mallocs)/spmvReps)
		}
	}
	l.add("sparse.spmv_bytes", float64(m.NNZ()*12+n*20))
	return nil
}
