// Package core implements the paper's contribution: the Markovian
// approximation algorithm of Section 5, which computes the battery
// lifetime distribution of a KiBaMRM — a reward-inhomogeneous Markov
// reward model whose two accumulated rewards are the charge wells of the
// Kinetic Battery Model.
//
// The uncountable state space S × [0, u1] × [0, u2] of the MRM is broken
// down to a finite grid with step Δ: a state (i, j1, j2) of the derived
// pure CTMC means the workload is in state i, the available charge lies
// in (j1Δ, (j1+1)Δ] and the bound charge in (j2Δ, (j2+1)Δ]. Three kinds
// of transitions arise (Section 5.2):
//
//   - workload transitions (i, j1, j2) → (i′, j1, j2) with the workload
//     rate Q_{i,i′} (the paper lets it depend on the rewards, evaluated
//     at (j1Δ, j2Δ); every workload here has constant rates);
//   - consumption (i, j1, j2) → (i, j1−1, j2) with rate I_i/Δ;
//   - bound-to-available transfer (i, j1, j2) → (i, j1+1, j2−1) with
//     rate k(h2 − h1)/Δ = k(j2/(1−c) − j1/c).
//
// States with j1 = 0 are absorbing — the battery is empty, and the
// lifetime is defined as the first time this happens — so the battery
// lifetime distribution Pr{battery empty at t} is the transient
// probability mass on the j1 = 0 slice, obtained by uniformisation. The
// approximation is a phase-type distribution that converges to the true
// lifetime distribution as Δ → 0.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"batlife/internal/check"
	"batlife/internal/ctmc"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/sparse"
)

// ErrBadGrid reports an unusable discretisation step.
var ErrBadGrid = errors.New("core: invalid discretisation")

// Options carries a build's telemetry. Neither field changes the chain.
type Options struct {
	// Obs, when non-nil, receives expansion telemetry (state/NNZ counts,
	// build timing, a "core.build" span). It does not affect the result
	// and is excluded from engine fingerprints. Solves record into the
	// registry in their own SolveOptions.Obs.
	Obs *obs.Registry
	// Context, when non-nil, carries the request-scoped trace: the
	// "core.build" span is parented under the span the context carries
	// (see obs.StartSpan), so daemon builds appear inside their
	// request's trace. Like Obs it does not affect the result and is
	// excluded from engine fingerprints.
	Context context.Context
}

// SolveOptions tunes one transient solve on an already-built Expanded:
// the uniformisation engine's own options, passed through unchanged, so
// an Expanded built once can be queried under many numerical settings —
// the substrate of the cached Solver facade.
type SolveOptions = ctmc.TransientOptions

// Expanded is the derived pure CTMC Q* for one model and step size. It
// is immutable after Build apart from the lazily-constructed, internally
// synchronised uniformisation operator, so one Expanded may serve
// concurrent solves (e.g. parallel scenario sweeps sharing a cache).
type Expanded struct {
	model mrm.KiBaMRM
	delta float64
	// n1, n2 are the level counts of the two reward dimensions.
	n1, n2 int
	gen    *sparse.CSR
	alpha  []float64

	// uniOnce guards the lazily-built uniformised operator shared by
	// every transient solve on this model.
	uniOnce sync.Once
	uni     *ctmc.Uniformized
	uniErr  error
}

// Build discretises the model's reward space with step delta (in
// ampere-seconds) and assembles the expanded generator. The step must
// divide both well capacities c·C and (1−c)·C.
func Build(model mrm.KiBaMRM, delta float64, opts Options) (*Expanded, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if delta <= 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("%w: delta %v", ErrBadGrid, delta)
	}
	u1 := model.Battery.C * model.Battery.Capacity
	u2 := (1 - model.Battery.C) * model.Battery.Capacity
	m1, ok1 := exactDiv(u1, delta)
	m2, ok2 := exactDiv(u2, delta)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: delta %v does not divide the well capacities %v and %v",
			ErrBadGrid, delta, u1, u2)
	}
	e := &Expanded{
		model: model,
		delta: delta,
		n1:    m1 + 1,
		n2:    m2 + 1,
	}
	var (
		span  *obs.Span
		start time.Time
	)
	if reg := opts.Obs; reg != nil {
		start = time.Now()
		_, span = obs.StartSpan(opts.Context, reg, "core.build",
			obs.Float("delta", delta),
			obs.Int("n1", int64(e.n1)),
			obs.Int("n2", int64(e.n2)))
	}
	if err := e.assemble(); err != nil {
		span.End(obs.String("error", err.Error()))
		return nil, err
	}
	if reg := opts.Obs; reg != nil {
		reg.Counter("core_expansions_total").Inc()
		reg.Histogram("core_expanded_states").Observe(float64(e.NumStates()))
		reg.Histogram("core_expanded_nnz").Observe(float64(e.NNZ()))
		reg.Histogram("core_build_seconds").ObserveDuration(time.Since(start).Seconds())
		span.End(
			obs.Int("states", int64(e.NumStates())),
			obs.Int("nnz", int64(e.NNZ())))
	}
	return e, nil
}

// exactDiv returns x/d as an integer if d divides x (within rounding).
//
//numlint:requires positive(d)
func exactDiv(x, d float64) (int, bool) {
	numlintContract_exactDiv(d)
	q := x / d
	r := math.Round(q)
	if math.Abs(q-r) > 1e-9*(1+math.Abs(q)) {
		return 0, false
	}
	return int(r), true
}

// index maps (i, j1, j2) to the flat state index.
func (e *Expanded) index(i, j1, j2 int) int {
	n := e.model.Workload.NumStates()
	return (j1*e.n2+j2)*n + i
}

// assemble builds the generator Q* and the initial distribution α*.
func (e *Expanded) assemble() error {
	n := e.model.Workload.NumStates()
	total := n * e.n1 * e.n2
	k := e.model.Battery.K
	c := e.model.Battery.C
	delta := e.delta

	// Initial distribution: the battery starts full, a1 = c·C falls in
	// the interval (j1Δ, (j1+1)Δ] with j1 = u1/Δ − 1, and likewise for
	// the bound well (j2 = 0 when there is no bound well).
	j1init := e.n1 - 2
	if e.n1 < 3 {
		return fmt.Errorf("%w: available well resolves to %d levels; decrease delta", ErrBadGrid, e.n1)
	}
	j2init := e.n2 - 2
	if e.n2 == 1 {
		j2init = 0
	}
	e.alpha = make([]float64, total)
	for i := 0; i < n; i++ {
		e.alpha[e.index(i, j1init, j2init)] = e.model.Initial[i]
	}

	// Estimate nonzeros: per live state one consumption, one transfer,
	// the workload row and a diagonal.
	workloadNNZ := e.model.Workload.Generator().NNZ()
	b := sparse.NewBuilder(total, total, e.n1*e.n2*(workloadNNZ+2*n)+total)

	// j1 = 0 is the empty battery: absorbing, no outgoing transitions.
	for j1 := 1; j1 < e.n1; j1++ {
		y1 := float64(j1) * delta
		for j2 := 0; j2 < e.n2; j2++ {
			y2 := float64(j2) * delta
			// Transfer rate between wells at this grid point, the
			// paper's k(j2/(1−c) − j1/c).
			transfer := 0.0
			if k > 0 && c < 1 && j2 > 0 {
				transfer = k * (y2/(1-c) - y1/c) / delta
				if transfer < 0 {
					transfer = 0
				}
			}
			for i := 0; i < n; i++ {
				from := e.index(i, j1, j2)
				diag := 0.0
				// Workload transitions at fixed reward levels.
				e.model.Workload.Generator().Row(i, func(col int, v float64) {
					if col == i || v <= 0 {
						return
					}
					b.Add(from, e.index(col, j1, j2), v)
					diag -= v
				})
				// Consumption: one level down in the available well.
				// Charging states (negative current, AllowCharging)
				// instead move one level up; surplus at the top level
				// is discarded.
				if current := e.model.Currents[i]; current > 0 && j1 > 0 {
					b.Add(from, e.index(i, j1-1, j2), current/delta)
					diag -= current / delta
				} else if current < 0 && j1 < e.n1-1 {
					b.Add(from, e.index(i, j1+1, j2), -current/delta)
					diag -= -current / delta
				}
				// Transfer: up in the available well, down in the bound
				// well.
				if transfer > 0 && j1 < e.n1-1 {
					b.Add(from, e.index(i, j1+1, j2-1), transfer)
					diag -= transfer
				}
				if diag != 0 {
					b.Add(from, from, diag)
				}
			}
		}
	}
	gen, err := b.Freeze()
	if err != nil {
		return fmt.Errorf("core: assemble Q*: %w", err)
	}
	e.gen = gen
	return nil
}

// NumStates reports the size of the expanded state space N·n1·n2.
func (e *Expanded) NumStates() int {
	return e.model.Workload.NumStates() * e.n1 * e.n2
}

// NNZ reports the number of nonzero generator entries.
func (e *Expanded) NNZ() int { return e.gen.NNZ() }

// Generator exposes the expanded generator for inspection and ablation
// experiments. Callers must not modify it.
func (e *Expanded) Generator() *sparse.CSR { return e.gen }

// Operator returns the uniformised transposed operator (I + Q*/q)ᵀ of
// the expanded chain, building it on first use and reusing it — together
// with its cached Fox–Glynn weight tables — for every subsequent
// transient solve on this model.
func (e *Expanded) Operator() (*ctmc.Uniformized, error) {
	e.uniOnce.Do(func() {
		e.uni, e.uniErr = ctmc.NewUniformized(e.gen)
	})
	if e.uniErr != nil {
		return nil, fmt.Errorf("core: uniformised operator: %w", e.uniErr)
	}
	return e.uni, nil
}

// solve runs one transient solve from α* on the model's cached operator:
// the distributions when w is nil, the functional w·π(t) otherwise.
func (e *Expanded) solve(w, times []float64, so SolveOptions) (*ctmc.Result, error) {
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	return u.Transient(e.alpha, w, times, so)
}

// Stats describes the transient solve behind an answer: the size of the
// expanded chain and the work uniformisation did. See ctmc.Result for
// the exact semantics of each count.
type Stats struct {
	// States and NNZ echo the expanded chain size.
	States, NNZ int
	// Iterations is the number of uniformisation steps performed and
	// SpMVs the matrix-vector products.
	Iterations, SpMVs int
	// Rate is the uniformisation constant of the expanded chain.
	Rate float64
	// FoxGlynnLeft and FoxGlynnRight delimit the Poisson truncation
	// window the solve committed to.
	FoxGlynnLeft, FoxGlynnRight int
	// DroppedMass is the probability mass the windowed solve trimmed
	// from its iterates, at most Epsilon: each probability is at most
	// Epsilon + DroppedMass below the exact uniformisation value.
	DroppedMass float64
}

// stats reports a transient solve on this model.
func (e *Expanded) stats(res *ctmc.Result) Stats {
	return Stats{
		States:        e.NumStates(),
		NNZ:           e.NNZ(),
		Iterations:    res.Iterations,
		SpMVs:         res.SpMVs,
		Rate:          res.Rate,
		FoxGlynnLeft:  res.FoxGlynnLeft,
		FoxGlynnRight: res.FoxGlynnRight,
		DroppedMass:   res.DroppedMass,
	}
}

// Result is a computed battery lifetime distribution.
type Result struct {
	// Times are the evaluation points, in seconds.
	Times []float64
	// EmptyProb[k] approximates Pr{battery empty at Times[k]}.
	EmptyProb []float64
	Stats
}

// LifetimeCDF computes Pr{battery empty at t} — the approximation of
// equation (4) — at each of the given times (seconds, ascending).
func (e *Expanded) LifetimeCDF(times []float64) (*Result, error) {
	return e.LifetimeCDFOpts(times, SolveOptions{})
}

// LifetimeCDFOpts is LifetimeCDF with per-solve options. The solve
// reuses the model's cached uniformisation operator, so repeated queries
// pay only the iteration loop.
func (e *Expanded) LifetimeCDFOpts(times []float64, so SolveOptions) (*Result, error) {
	res, err := e.solve(e.emptyIndicator(), times, so)
	if err != nil {
		return nil, fmt.Errorf("core: lifetime CDF: %w", err)
	}
	return &Result{Times: res.Times, EmptyProb: clampProbs(res.Values), Stats: e.stats(res)}, nil
}

// LifetimeCDFBatchOpts evaluates the lifetime CDF on several time grids
// with one transient solve over the sorted, de-duplicated union of
// their time points. The iterate sequence α·Pⁿ does not depend on t —
// only the Poisson weights do — so the whole group costs one sweep out
// to its largest horizon. This is how Solver.Sweep amortises scenarios
// that share one expanded CTMC.
//
// Results[k] matches a solo LifetimeCDFOpts(grids[k], so): EmptyProb
// bit for bit (each point's accumulator sees the same weighted iterates
// whatever points share the solve, and past a grid's own Fox–Glynn
// right bound its weights are zero), Iterations as the solo solve would
// report them, and FoxGlynnLeft/Right the grid's own window. SpMVs are
// charged once, to the first grid with the largest window, so a group's
// sum is the work actually performed. DroppedMass is the shared solve's,
// which bounds every grid's (a solo solve stops dropping at its own
// horizon). Errors are for the group as a
// whole: a union whose horizon exceeds MaxIterations fails even when
// its shorter grids alone would pass.
func (e *Expanded) LifetimeCDFBatchOpts(grids [][]float64, so SolveOptions) ([]*Result, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("core: batched lifetime CDF: %w: no time grids", ctmc.ErrBadInput)
	}
	var union []float64
	for k, grid := range grids {
		if len(grid) == 0 || !sort.Float64sAreSorted(grid) {
			return nil, fmt.Errorf("core: batched lifetime CDF: %w: grid %d is empty or not ascending", ctmc.ErrBadInput, k)
		}
		union = append(union, grid...)
	}
	sort.Float64s(union)
	union = slices.Compact(union)

	res, err := e.solve(e.emptyIndicator(), union, so)
	if err != nil {
		return nil, fmt.Errorf("core: batched lifetime CDF: %w", err)
	}
	probs := clampProbs(res.Values)

	out := make([]*Result, len(grids))
	charged := false
	for k, grid := range grids {
		left, right, err := e.uni.Window(grid, so)
		if err != nil {
			return nil, fmt.Errorf("core: batched lifetime CDF: %w", err)
		}
		r := &Result{
			Times:     append([]float64(nil), grid...),
			EmptyProb: make([]float64, len(grid)),
			Stats:     e.stats(res),
		}
		r.Iterations, r.SpMVs = min(res.Iterations, right), 0
		r.FoxGlynnLeft, r.FoxGlynnRight = left, right
		// Both slices ascend and the union holds every grid point, so
		// one forward walk finds each point's value.
		j := 0
		for i, t := range grid {
			for union[j] < t {
				j++
			}
			r.EmptyProb[i] = probs[j]
		}
		if !charged && right == res.FoxGlynnRight {
			r.SpMVs, charged = res.SpMVs, true
		}
		out[k] = r
	}
	return out, nil
}

// emptyIndicator returns the depletion functional: 1 on every j1 = 0
// (battery empty) state, 0 elsewhere.
func (e *Expanded) emptyIndicator() []float64 {
	n := e.model.Workload.NumStates()
	w := make([]float64, e.NumStates())
	for j2 := 0; j2 < e.n2; j2++ {
		for i := 0; i < n; i++ {
			w[e.index(i, 0, j2)] = 1
		}
	}
	return w //numlint:normalized a 0/1 state indicator, not a distribution
}

// clampProbs clamps each value into [0, 1] in place and returns the
// slice. Uniformisation guarantees probabilities up to rounding; this
// removes the usual ±1e-15 noise.
func clampProbs(ps []float64) []float64 {
	for k, p := range ps {
		ps[k] = math.Min(1, math.Max(0, p))
	}
	check.UnitInterval("core.clampProbs", ps)
	return ps
}
