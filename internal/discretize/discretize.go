// Package discretize implements the reward/time discretisation algorithm
// for performability distributions (Haverkort & Katoen [18]; described in
// detail in the technical report [20]) that the paper's Section 5
// considers and rejects in favour of the Markovian approximation.
//
// Time advances in fixed steps D; accumulated reward advances in units
// u·D, where u is the greatest common divisor of the reward rates, so
// that state i gains exactly g_i = r_i/u reward levels per step.
// Probability mass is propagated over the (state, level) grid with the
// one-step kernel P = I + Q·D.
//
// The algorithm requires the reward rates to be integer after scaling —
// the weakness the paper calls out: rationally unrelated or
// finely-grained rates blow up the level count (the simple wireless
// model's 8 mA and 200 mA scale benignly to 1 and 25, but rates such as
// 1 and π have no common unit at all). The ablation benchmark at the
// repository root measures this against the Markovian approximation.
package discretize

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/check"
	"batlife/internal/mrm"
)

// ErrNotScalable reports reward rates with no usable common unit.
var ErrNotScalable = errors.New("discretize: reward rates have no common integer scaling")

// ErrBadStep reports an unusable time step.
var ErrBadStep = errors.New("discretize: invalid time step")

// maxLevelsPerStep bounds the integer rate multipliers; beyond this the
// grid is declared infeasible (this is exactly the paper's objection).
const maxLevelsPerStep = 1 << 20

// ScaleRates returns the common unit u and integer multipliers g with
// rates[i] ≈ g[i]·u. Zero rates map to zero. It fails when the rates are
// not rationally related within a 1e-9 relative tolerance.
func ScaleRates(rates []float64) (float64, []int, error) {
	unit := 0.0
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return 0, nil, fmt.Errorf("%w: rate %v", ErrNotScalable, r)
		}
		if r == 0 {
			continue
		}
		if unit == 0 {
			unit = r
			continue
		}
		unit = floatGCD(unit, r)
		if unit == 0 {
			return 0, nil, ErrNotScalable
		}
	}
	g := make([]int, len(rates))
	if unit == 0 {
		return 0, g, nil // all rates zero
	}
	for i, r := range rates {
		q := r / unit
		rounded := math.Round(q)
		if math.Abs(q-rounded) > 1e-6 || rounded > maxLevelsPerStep {
			return 0, nil, fmt.Errorf("%w: rate %v is %v units", ErrNotScalable, r, q)
		}
		g[i] = int(rounded)
	}
	return unit, g, nil
}

// floatGCD is Euclid's algorithm on positive reals with a relative
// tolerance; it returns 0 when no common divisor emerges before the
// remainder vanishes into rounding noise.
func floatGCD(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	ref := a
	for i := 0; i < 256; i++ {
		if b < 1e-9*ref {
			return a
		}
		a, b = b, math.Mod(a, b)
		if a < b {
			a, b = b, a
		}
	}
	return 0
}

// EnergyDepletionCDF approximates Pr{Y(t) ≥ capacity} — the battery
// lifetime CDF of a c = 1 battery — at the given times using the
// discretisation scheme with time step. Times are snapped to the step
// grid. All reward rates must be non-negative. The accumulated
// absorption mass is clamped into [0, 1] at every recorded time point.
//
//numlint:ensures unitinterval
//numlint:ignore testonly oracle: the reward discretisation, checked against the exact solver
func EnergyDepletionCDF(m mrm.ConstantReward, capacity float64, times []float64, step float64) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("discretize: %w", err)
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("%w: capacity %v", ErrBadStep, capacity)
	}
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("%w: %v", ErrBadStep, step)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("%w: no time points", ErrBadStep)
	}
	unit, g, err := ScaleRates(m.Rates)
	if err != nil {
		return nil, err
	}
	if unit == 0 {
		// No state ever accrues reward: the battery never depletes.
		return make([]float64, len(times)), nil
	}

	n := m.Chain.NumStates()
	// Stability: every one-step jump probability must stay a probability.
	for i := 0; i < n; i++ {
		if p := m.Chain.ExitRate(i) * step; p > 1 {
			return nil, fmt.Errorf("%w: exit rate %v × step %v = %v > 1 (state %s)",
				ErrBadStep, m.Chain.ExitRate(i), step, p, m.Chain.Name(i))
		}
	}

	// Level grid: one level = unit·step reward; absorption at the first
	// level at or beyond the capacity.
	levelSize := unit * step
	absorb := int(math.Ceil(capacity / levelSize))
	if absorb < 1 {
		absorb = 1
	}
	if absorb > 64<<20/n {
		return nil, fmt.Errorf("%w: %d reward levels needed — grid infeasible (decrease resolution)",
			ErrNotScalable, absorb)
	}
	maxSteps := int(math.Round(times[len(times)-1] / step))

	// mass[i·(absorb) + l] for live levels l < absorb; dead collects the
	// absorbed probability.
	mass := make([]float64, n*absorb)
	next := make([]float64, n*absorb)
	dead := 0.0
	for i := 0; i < n; i++ {
		mass[i*absorb] = m.Initial[i]
	}

	out := make([]float64, len(times))
	ti := 0
	record := func(stepIdx int) {
		for ti < len(times) && int(math.Round(times[ti]/step)) <= stepIdx {
			out[ti] = math.Min(1, math.Max(0, dead))
			ti++
		}
	}
	record(0)

	for s := 1; s <= maxSteps && ti < len(times); s++ {
		for i := range next {
			next[i] = 0
		}
		for i := 0; i < n; i++ {
			base := i * absorb
			gi := g[i]
			stay := 1 - m.Chain.ExitRate(i)*step
			for l := 0; l < absorb; l++ {
				p := mass[base+l]
				if p == 0 {
					continue
				}
				nl := l + gi
				if nl >= absorb {
					dead += p
					continue
				}
				// Stay, accruing reward.
				next[base+nl] += p * stay
				// Jump to successors, accruing this state's reward for
				// the step.
				m.Chain.Generator().Row(i, func(col int, v float64) {
					if col == i {
						return
					}
					next[col*absorb+nl] += p * v * step
				})
			}
		}
		mass, next = next, mass
		record(s)
	}
	// Any remaining (late) time points: the loop ended because maxSteps
	// was reached.
	record(maxSteps)
	check.UnitInterval("discretize.EnergyDepletionCDF", out)
	return out, nil
}
