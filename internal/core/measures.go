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

// sweepTolerance and maxSweeps stop a charging model's sweeps.
const sweepTolerance, maxSweeps = 1e-12, 200000

// MeanLifetime returns the expected battery lifetime E[L] in seconds:
// the expected absorption time m of the expanded chain into the empty
// (j1 = 0) slice: (−Q*)·m = 1 on the live states, m = 0 on the empty.
// See absorb for the solve, its charging sweeps and its errors.
func (e *Expanded) MeanLifetime(ctx context.Context) (float64, error) {
	return e.absorb(ctx, "mean lifetime", 1, func(int) float64 { return 0 })
}

// StrandedCharge returns the expected bound charge, in ampere-seconds,
// left in the battery at the moment it empties: the expected absorption
// reward r of the expanded chain, (−Q*)·r = 0 on the live states and
// r = (j2+½)Δ on the empty state of bound level j2 (the midpoint of
// its interval). It needs no time horizon. See absorb for the solve,
// its charging sweeps and its errors.
func (e *Expanded) StrandedCharge(ctx context.Context) (float64, error) {
	return e.absorb(ctx, "stranded charge", 0, func(j2 int) float64 {
		return (float64(j2) + 0.5) * e.delta
	})
}

// absorb returns α·m for the absorption measure m of the expanded
// chain with constant right-hand side rhs on the live states and the
// value empty(j2) on each empty (j1 = 0) state:
// (−Q*_LL)·m = rhs + Q*_LE·m_E.
//
// It solves the n×n system of each block — the n workload states of one
// grid cell (j1, j2) — by LU, in ascending (j1+j2, j2). Consumption
// lowers j1+j2 and transfer keeps it but lowers j2, so every transition
// out of a block reaches a block already solved, and one sweep is
// exact. Charging (negative current) raises j1, so those models repeat
// the sweep on the stored factors until the largest change is at most
// 1e-12 of the largest value, within 200,000 sweeps. ctx is checked
// between sweeps, and its error is returned wrapped.
//
// ErrNoAbsorption reports no finite measure: no state draws current, a
// closed class of live states (a block some of whose states cannot leave
// it), or charging sweeps that do not settle.
func (e *Expanded) absorb(ctx context.Context, what string, rhs float64, empty func(j2 int) float64) (float64, error) {
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
	for j2 := range e.n2 {
		for i := range n {
			m[e.index(i, 0, j2)] = empty(j2)
		}
	}
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
			return 0, fmt.Errorf("core: %s: %w", what, err)
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
					x[i] = rhs
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
		if !upward || change <= sweepTolerance*scale {
			break
		}
		if sweep == maxSweeps {
			return 0, fmt.Errorf("%w: %s did not settle within %d sweeps", ErrNoAbsorption, what, maxSweeps)
		}
	}
	total := 0.0
	for s, p := range e.alpha {
		total += p * m[s]
	}
	return total, nil
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
