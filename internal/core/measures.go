package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"batlife/internal/linalg"
)

// ErrNoAbsorption reports a chain whose battery can never empty, so
// absorption-based measures diverge.
var ErrNoAbsorption = errors.New("core: battery never empties under this model")

// meanTolerance and meanMaxSweeps stop a charging model's sweeps.
const meanTolerance, meanMaxSweeps = 1e-12, 200000

// MeanLifetime returns the expected battery lifetime E[L] in seconds:
// the expected absorption time m of the expanded chain into the empty
// (j1 = 0) slice: (−Q*)·m = 1 on the live states, m = 0 on the empty.
//
// It solves the n×n system of each block — the n workload states of one
// grid cell (j1, j2) — by LU, in ascending (j1+j2, j2). Consumption
// lowers j1+j2 and transfer keeps it but lowers j2, so every transition
// out of a block reaches a block already solved, and one sweep is
// exact. Charging (negative current) raises j1, so those models repeat
// the sweep on the stored factors until the largest change is at most
// 1e-12 of the largest mean, within 200,000 sweeps. ctx is checked
// between sweeps, and its error is returned wrapped.
//
// ErrNoAbsorption reports no finite mean: no state draws current, a
// closed class of live states (a block some of whose states cannot leave
// it), or charging sweeps that do not settle.
func (e *Expanded) MeanLifetime(ctx context.Context) (float64, error) {
	if e.model.MaxCurrent() == 0 {
		return 0, fmt.Errorf("%w: no state draws current", ErrNoAbsorption)
	}
	n := e.model.Workload.NumStates()
	upward := slices.ContainsFunc(e.model.Currents, func(c float64) bool { return c < 0 })
	// One sweep needs one block's factors at a time; repeated sweeps
	// keep every live block's, in slot first/n − n2.
	slots := 1
	if upward {
		slots = (e.n1 - 1) * e.n2
	}
	lu := make([]float64, slots*n*n)
	piv := make([]int, slots*n)
	exits := make([]bool, n)
	x := make([]float64, n)
	m := make([]float64, e.NumStates())
	// One visitor for every row: it reads state first+i of the block at
	// first, whose matrix is a.
	var (
		first, i int
		a        []float64
		fill     bool // the first sweep fills in the blocks' matrices
	)
	visit := func(col int, v float64) {
		if k := col - first; k >= 0 && k < n {
			if fill {
				a[i*n+k] = -v
			}
			return
		}
		x[i] += v * m[col]
		exits[i] = true
	}
	for sweep := 1; ; sweep++ {
		fill = sweep == 1
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("core: mean lifetime: %w", err)
		}
		change, scale := 0.0, 0.0
		for sum := 1; sum <= e.n1+e.n2-2; sum++ {
			for j2 := max(0, sum-e.n1+1); j2 <= min(sum-1, e.n2-1); j2++ {
				j1 := sum - j2
				first = e.index(0, j1, j2)
				slot := (first/n - e.n2) % slots
				a = lu[slot*n*n : (slot+1)*n*n]
				p := piv[slot*n : (slot+1)*n]
				if fill {
					clear(a)
					clear(exits)
				}
				for i = range x {
					x[i] = 1
					e.Row(first+i, visit)
				}
				if fill {
					if err := factorBlock(a, p, exits); err != nil {
						return 0, fmt.Errorf("%w: block (j1=%d, j2=%d): %v", ErrNoAbsorption, j1, j2, err)
					}
				}
				linalg.SolveLU(a, p, x)
				for i, v := range x {
					change = max(change, math.Abs(v-m[first+i]))
					scale = max(scale, math.Abs(v))
					m[first+i] = v
				}
			}
		}
		if !upward || change <= meanTolerance*scale {
			break
		}
		if sweep == meanMaxSweeps {
			return 0, fmt.Errorf("%w: mean did not settle within %d sweeps", ErrNoAbsorption, meanMaxSweeps)
		}
	}
	mean := 0.0
	for s, p := range e.alpha {
		mean += p * m[s]
	}
	return mean, nil
}

// factorBlock LU-factors a block's matrix a = −Q*_BB in place, after
// checking that every state can leave the block, directly (exits) or
// via the block's own transitions. Otherwise it lies in a closed class,
// whose singular block could round to a tiny nonzero pivot.
func factorBlock(a []float64, piv []int, exits []bool) error {
	n := len(piv)
	for grown := true; grown; {
		grown = false
		for i := range n {
			for k := 0; k < n && !exits[i]; k++ {
				if exits[k] && a[i*n+k] < 0 {
					exits[i], grown = true, true
				}
			}
		}
	}
	if i := slices.Index(exits, false); i >= 0 {
		return fmt.Errorf("workload state %d cannot leave it", i)
	}
	return linalg.FactorLU(a, piv)
}

// WastedCharge is the distribution of the bound charge remaining when
// the battery empties — capacity that was paid for but never delivered.
// The paper's Figure 10 discussion observes that a two-well battery can
// in general not use its full capacity; this measure quantifies how
// much is stranded.
type WastedCharge struct {
	// Levels[j2] is Pr{bound charge in (j2Δ, (j2+1)Δ] at depletion},
	// conditioned on the battery being empty at the evaluation time.
	Levels []float64
	// Delta is the grid step in ampere-seconds.
	Delta float64
	// AbsorbedMass is the unconditional probability that the battery is
	// empty at the evaluation time.
	AbsorbedMass float64
	// Stats describes the transient solve at the evaluation time.
	Stats
}

// Mean returns the expected stranded bound charge in ampere-seconds
// (midpoint rule over the grid intervals).
func (wc *WastedCharge) Mean() float64 {
	mean := 0.0
	for j2, p := range wc.Levels {
		mean += p * (float64(j2) + 0.5) * wc.Delta
	}
	return mean
}

// WastedChargeDistribution computes the stranded-charge distribution at
// time t (choose t well past the lifetime's upper tail so that
// AbsorbedMass ≈ 1 and the conditional distribution is the depletion
// distribution proper).
func (e *Expanded) WastedChargeDistribution(t float64) (*WastedCharge, error) {
	return e.WastedChargeDistributionOpts(t, SolveOptions{})
}

// WastedChargeDistributionOpts is WastedChargeDistribution with
// per-solve options.
func (e *Expanded) WastedChargeDistributionOpts(t float64, so SolveOptions) (*WastedCharge, error) {
	res, err := e.solve(nil, []float64{t}, so)
	if err != nil {
		return nil, fmt.Errorf("core: wasted charge: %w", err)
	}
	n := e.model.Workload.NumStates()
	wc := &WastedCharge{
		Levels: make([]float64, e.n2),
		Delta:  e.delta,
		Stats:  e.stats(res),
	}
	pi := res.Distributions[0]
	for j2 := 0; j2 < e.n2; j2++ {
		for i := 0; i < n; i++ {
			wc.Levels[j2] += pi[e.index(i, 0, j2)]
		}
	}
	for _, p := range wc.Levels {
		wc.AbsorbedMass += p
	}
	if wc.AbsorbedMass > 0 {
		inv := 1 / wc.AbsorbedMass
		for j2 := range wc.Levels {
			wc.Levels[j2] *= inv
		}
	}
	return wc, nil
}
