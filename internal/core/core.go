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
//
// Q* is a closed-form row source, not a stored matrix: Expanded.Row
// computes any row from the three rates above, the uniformised operator
// and the mean-lifetime solve read their rows from it, and a CSR copy
// exists only when Generator builds one on demand.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"batlife/internal/check"
	"batlife/internal/ctmc"
	"batlife/internal/mrm"
	"batlife/internal/sparse"
)

// ErrBadGrid reports an unusable discretisation step.
var ErrBadGrid = errors.New("core: invalid discretisation")

// Options has no fields: a build is fully determined by the model and
// Δ. The type stays because the bench/ harness passes core.Options{}.
// Build telemetry is recorded one level up, by the engine that owns
// the build.
type Options struct{}

// SolveOptions tunes one transient solve on an already-built Expanded:
// the uniformisation engine's own options, passed through unchanged, so
// an Expanded built once can be queried under many numerical settings —
// the substrate of the cached Solver facade.
type SolveOptions = ctmc.TransientOptions

// Expanded is the derived pure CTMC Q* for one model and step size,
// whose rows Row computes on demand. It is immutable after Build apart
// from the lazily-constructed, internally synchronised uniformisation
// operator, so one Expanded may serve concurrent solves (e.g. parallel
// scenario sweeps sharing a cache).
type Expanded struct {
	model mrm.KiBaMRM
	delta float64
	// n1, n2 are the level counts of the two reward dimensions.
	n1, n2 int
	// workload holds each workload state's row, which Row reads.
	workload []workloadRow
	nnz      int
	alpha    []float64

	// uniOnce guards the lazily-built uniformised operator shared by
	// every transient solve on this model.
	uniOnce sync.Once
	uni     *ctmc.Uniformized
	uniErr  error
}

// Build discretises the model's reward space with step delta (in
// ampere-seconds) and prepares the expanded generator's rows. The step
// must divide both well capacities c·C and (1−c)·C.
func Build(model mrm.KiBaMRM, delta float64, _ Options) (*Expanded, error) {
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
	if err := e.prepare(); err != nil {
		return nil, err
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

// workloadRow is one workload state's outgoing transitions: the positive
// off-diagonal rates in column order, and the diagonal they contribute,
// accumulated in that order.
type workloadRow struct {
	out  []workloadRate
	diag float64
}

type workloadRate struct {
	col  int
	rate float64
}

// prepare fills in α* and the workload rows Row reads, then counts Q*'s
// nonzeros in one pass over its rows, checking each is finite.
func (e *Expanded) prepare() error {
	n := e.model.Workload.NumStates()
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
	e.alpha = make([]float64, e.NumStates())
	for i := 0; i < n; i++ {
		e.alpha[e.index(i, j1init, j2init)] = e.model.Initial[i]
	}

	gen := e.model.Workload.Generator()
	rates := make([]workloadRate, 0, gen.NNZ())
	e.workload = make([]workloadRow, n)
	for i := range e.workload {
		w, start := &e.workload[i], len(rates)
		gen.Row(i, func(col int, v float64) {
			if col == i || v <= 0 {
				return
			}
			rates = append(rates, workloadRate{col, v})
			w.diag -= v
		})
		w.out = rates[start:]
	}

	var (
		r   int
		bad error
	)
	count := func(col int, v float64) {
		if bad == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			bad = fmt.Errorf("core: Q* entry (%d,%d) is not finite: %v", r, col, v)
		}
		e.nnz++
	}
	for r = 0; r < e.Rows(); r++ {
		e.Row(r, count)
	}
	return bad
}

// Rows reports the number of rows of Q*, its state count.
func (e *Expanded) Rows() int { return e.NumStates() }

// Row visits the nonzeros of row r of Q* in ascending column order,
// computed from §5.2's closed form: the row of state (i, j1, j2) holds
//
//   - workload transitions (i′, j1, j2) at the workload rate Q_{i,i′};
//   - consumption (i, j1−1, j2) at I_i/Δ, or for a charging state
//     (negative current) (i, j1+1, j2) at −I_i/Δ below the top level —
//     surplus at the top level is discarded;
//   - the transfer (i, j1+1, j2−1) at k(j2/(1−c) − j1/c) when positive
//     and j1 is below the top level;
//   - the diagonal, minus the row's other entries summed in that order.
//
// Rows with j1 = 0 — the empty battery — are absorbing and have none.
// The diagonal's summation order fixes its bits, and with them q, Pᵀ
// and every answer; TestRowsPinned pins them.
func (e *Expanded) Row(r int, fn func(col int, v float64)) {
	n := len(e.workload)
	i, cell := r%n, r/n
	j1, j2 := cell/e.n2, cell%e.n2
	if j1 == 0 {
		return
	}
	w := &e.workload[i]
	diag := w.diag
	var down, up, transfer float64
	if current := e.model.Currents[i]; current > 0 {
		down = current / e.delta
		diag -= down
	} else if current < 0 && j1 < e.n1-1 {
		up = -current / e.delta
		diag -= up
	}
	if k, c := e.model.Battery.K, e.model.Battery.C; k > 0 && c < 1 && j2 > 0 && j1 < e.n1-1 {
		// The paper's k(j2/(1−c) − j1/c); a negative rate is no
		// transition.
		y1, y2 := float64(j1)*e.delta, float64(j2)*e.delta
		if transfer = k * (y2/(1-c) - y1/c) / e.delta; transfer > 0 {
			diag -= transfer
		} else {
			transfer = 0
		}
	}

	if down != 0 {
		fn(r-e.n2*n, down)
	}
	base, t := r-i, 0
	for ; t < len(w.out) && w.out[t].col < i; t++ {
		fn(base+w.out[t].col, w.out[t].rate)
	}
	if diag != 0 {
		fn(r, diag)
	}
	for ; t < len(w.out); t++ {
		fn(base+w.out[t].col, w.out[t].rate)
	}
	if transfer != 0 {
		fn(r+(e.n2-1)*n, transfer)
	}
	if up != 0 {
		fn(r+e.n2*n, up)
	}
}

// NumStates reports the size of the expanded state space N·n1·n2.
func (e *Expanded) NumStates() int {
	return e.model.Workload.NumStates() * e.n1 * e.n2
}

// NNZ reports the number of nonzero generator entries.
func (e *Expanded) NNZ() int { return e.nnz }

// Generator builds Q* as a CSR matrix from Row, for inspection and
// ablation experiments. Each call builds a new matrix, which the
// Expanded does not keep: the solves read the rows straight from Row.
//
//numlint:ignore testonly bench/ times the CSR product on it, and tests hold Pᵀ from Row against Pᵀ from it
func (e *Expanded) Generator() *sparse.CSR {
	n := e.Rows()
	b := sparse.NewBuilder(n, n, e.nnz)
	var r int
	add := func(col int, v float64) { b.Add(r, col, v) }
	for r = 0; r < n; r++ {
		e.Row(r, add)
	}
	gen, err := b.Freeze()
	if err != nil {
		// Unreachable: Build checked that every entry is finite, and
		// Row emits columns inside the chain.
		panic(fmt.Sprintf("core: Q* as CSR: %v", err))
	}
	return gen
}

// Operator returns the uniformised transposed operator (I + Q*/q)ᵀ of
// the expanded chain, building it on first use and reusing it — together
// with its cached Fox–Glynn weight tables — for every subsequent
// transient solve on this model.
func (e *Expanded) Operator() (*ctmc.Uniformized, error) {
	e.uniOnce.Do(func() {
		e.uni, e.uniErr = ctmc.NewUniformized(e)
	})
	if e.uniErr != nil {
		return nil, fmt.Errorf("core: uniformised operator: %w", e.uniErr)
	}
	return e.uni, nil
}

// solve runs one transient solve from α* on the model's cached
// operator for the probability that the battery is empty at each time.
func (e *Expanded) solve(times []float64, so SolveOptions) (*ctmc.Result, error) {
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	return u.Transient(e.alpha, e.emptyIndicator(), times, so)
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
	res, err := e.solve(times, so)
	if err != nil {
		return nil, fmt.Errorf("core: lifetime CDF: %w", err)
	}
	return &Result{Times: res.Times, EmptyProb: clampProbs(res.Values), Stats: e.stats(res)}, nil
}

// LifetimeCDFBatchOpts evaluates the lifetime CDF on several time grids
// with one transient solve over the sorted, de-duplicated union of
// their time points. The iterate sequence α·Pⁿ does not depend on t —
// only the Poisson weights do — so the whole group costs one sweep out
// to its largest horizon. Every lifetime CDF the Solver computes runs
// through it: a single query as a one-grid call, and a Sweep group of
// scenarios that share one expanded CTMC as one call over all of their
// grids.
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
		return nil, fmt.Errorf("core: lifetime CDF: %w: no time grids", ctmc.ErrBadInput)
	}
	var union []float64
	for k, grid := range grids {
		if len(grid) == 0 || !sort.Float64sAreSorted(grid) {
			return nil, fmt.Errorf("core: lifetime CDF: %w: grid %d is empty or not ascending", ctmc.ErrBadInput, k)
		}
		union = append(union, grid...)
	}
	sort.Float64s(union)
	union = slices.Compact(union)

	res, err := e.solve(union, so)
	if err != nil {
		return nil, fmt.Errorf("core: lifetime CDF: %w", err)
	}
	probs := clampProbs(res.Values)

	out := make([]*Result, len(grids))
	charged := false
	for k, grid := range grids {
		left, right, err := e.uni.Window(grid, so)
		if err != nil {
			return nil, fmt.Errorf("core: lifetime CDF: %w", err)
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
