package ctmc

import (
	"fmt"
	"math"
)

// Phase is one segment of a piecewise-constant time-inhomogeneous CTMC:
// the chain that is in force for Duration seconds, given by its
// uniformised operator. The paper's Section 4.1 allows fully
// time-inhomogeneous models Q(t); piecewise-constant phases are the
// computationally tractable subclass — each phase is solved by ordinary
// uniformisation and the phase-end distribution seeds the next phase.
// Operators are reused as they are, with their cached Pᵀ and Fox–Glynn
// tables, so one operator may serve several phases and solves.
type Phase struct {
	// Operator is the uniformised chain during this phase.
	Operator *Uniformized
	// Duration is the phase length in seconds; the final phase may be
	// +Inf.
	Duration float64
}

// PiecewiseTransient solves the time-inhomogeneous chain at each
// requested time: the full distribution π(t) when w is nil, or the
// functional w·π(t) otherwise, formed from the distribution each phase's
// solve returns. The times must be finite, nonnegative and ascending, as
// Transient's are; times beyond the total phase span are rejected
// unless the last phase is infinite.
//
// Iterations, SpMVs, WindowRows, WindowPlans and DroppedMass sum over
// the phases' solves and Rate is the largest phase rate; FoxGlynnLeft
// and FoxGlynnRight stay 0, since each phase has a window of its own.
func PiecewiseTransient(phases []Phase, alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrBadInput)
	}
	n := len(alpha)
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("%w: |w|=%d for %d states", ErrBadInput, len(w), n)
	}
	for i, ph := range phases {
		if ph.Operator == nil || ph.Operator.NumStates() != n {
			return nil, fmt.Errorf("%w: phase %d operator does not match %d states", ErrBadInput, i, n)
		}
		if ph.Duration <= 0 || math.IsNaN(ph.Duration) {
			return nil, fmt.Errorf("%w: phase %d duration %v", ErrBadInput, i, ph.Duration)
		}
		if math.IsInf(ph.Duration, 1) && i != len(phases)-1 {
			return nil, fmt.Errorf("%w: only the final phase may be infinite (phase %d)", ErrBadInput, i)
		}
	}
	if err := checkTimes(times); err != nil {
		return nil, err
	}

	out := &Result{
		Times:         append([]float64(nil), times...),
		Distributions: make([][]float64, len(times)),
	}
	current := append([]float64(nil), alpha...)
	phaseStart := 0.0
	ti := 0
	for pi, ph := range phases {
		phaseEnd := phaseStart + ph.Duration
		// Collect the requested times that land inside this phase,
		// expressed relative to the phase start.
		var rel []float64
		for k := ti; k < len(times); k++ {
			if times[k] <= phaseEnd+1e-12 || math.IsInf(ph.Duration, 1) {
				r := math.Max(0, times[k]-phaseStart)
				if !math.IsInf(ph.Duration, 1) {
					r = math.Min(r, ph.Duration)
				}
				rel = append(rel, r)
			} else {
				break
			}
		}
		// Always solve to the phase end too (to seed the next phase),
		// unless this is the last phase.
		solveTimes := append([]float64(nil), rel...)
		needEnd := pi != len(phases)-1
		if needEnd {
			solveTimes = append(solveTimes, ph.Duration)
		}
		if len(solveTimes) == 0 {
			phaseStart = phaseEnd
			continue
		}
		res, err := ph.Operator.Transient(current, nil, solveTimes, opts)
		if err != nil {
			return nil, fmt.Errorf("ctmc: phase %d: %w", pi, err)
		}
		out.Iterations += res.Iterations
		out.SpMVs += res.SpMVs
		out.WindowRows += res.WindowRows
		out.WindowPlans += res.WindowPlans
		out.DroppedMass += res.DroppedMass
		out.Rate = math.Max(out.Rate, res.Rate)
		for k := range rel {
			out.Distributions[ti] = res.Distributions[k]
			ti++
		}
		if needEnd {
			current = res.Distributions[len(solveTimes)-1]
		}
		phaseStart = phaseEnd
		if ti == len(times) {
			break
		}
	}
	if ti != len(times) {
		return nil, fmt.Errorf("%w: time %v beyond the total phase span", ErrBadInput, times[ti])
	}
	if w == nil {
		return out, nil
	}
	out.Values = make([]float64, len(times))
	for k, d := range out.Distributions {
		s := 0.0
		for i, wi := range w {
			s += wi * d[i]
		}
		out.Values[k] = s
	}
	out.Distributions = nil
	return out, nil
}
