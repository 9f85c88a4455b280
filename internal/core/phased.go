package core

import (
	"errors"
	"fmt"

	"batlife/internal/ctmc"
	"batlife/internal/mrm"
)

// ErrPhaseMismatch reports phased models that cannot be chained.
var ErrPhaseMismatch = errors.New("core: phased models are incompatible")

// PhasedLifetimeCDFExpanded computes Pr{battery empty at t} for a
// scenario that switches between workload models at fixed instants (the
// paper's time-inhomogeneous MRMs of Section 4.1, in piecewise-constant
// form): phase i's chain is in force for durations[i] seconds, and the
// final duration may be +Inf. All phases must share the battery, the
// workload state count and the step Δ, so the probability vector can be
// handed across phase boundaries. Each phase runs on its model's cached
// operator (see Expanded.Operator), so phases that share a model, and
// repeated queries, reuse one Pᵀ and its Fox–Glynn tables.
//
// Iterations, SpMVs and DroppedMass sum over the phases; the Fox–Glynn
// window is left unset, since each phase has one of its own.
func PhasedLifetimeCDFExpanded(phases []*Expanded, durations []float64, times []float64, so SolveOptions) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrPhaseMismatch)
	}
	if len(durations) != len(phases) {
		return nil, fmt.Errorf("%w: %d durations for %d phases", ErrPhaseMismatch, len(durations), len(phases))
	}
	first := phases[0]
	chainPhases := make([]ctmc.Phase, len(phases))
	for i, e := range phases {
		if i > 0 {
			if err := checkPhaseCompat(first.model, e.model); err != nil {
				return nil, fmt.Errorf("phase %d: %w", i, err)
			}
			//numlint:ignore floatcmp the grid step is a configuration constant shared verbatim across phases, not a computed value
			if e.delta != first.delta {
				return nil, fmt.Errorf("%w: phase %d step %v vs %v", ErrPhaseMismatch, i, e.delta, first.delta)
			}
		}
		u, err := e.Operator()
		if err != nil {
			return nil, err
		}
		chainPhases[i] = ctmc.Phase{Operator: u, Duration: durations[i]}
	}
	res, err := ctmc.PiecewiseTransient(chainPhases, first.alpha, first.emptyIndicator(), times, so)
	if err != nil {
		return nil, fmt.Errorf("core: phased lifetime CDF: %w", err)
	}
	return &Result{Times: res.Times, EmptyProb: clampProbs(res.Values), Stats: first.stats(res)}, nil
}

// checkPhaseCompat checks that two phase models share the structure the grid
// hand-off requires.
func checkPhaseCompat(a, b mrm.KiBaMRM) error {
	if a.Workload.NumStates() != b.Workload.NumStates() {
		return fmt.Errorf("%w: %d vs %d workload states",
			ErrPhaseMismatch, a.Workload.NumStates(), b.Workload.NumStates())
	}
	if a.Battery != b.Battery {
		return fmt.Errorf("%w: batteries differ (%+v vs %+v)", ErrPhaseMismatch, a.Battery, b.Battery)
	}
	return nil
}
