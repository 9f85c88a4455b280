// Package mrm implements the Markov reward model formalism of the
// paper's Section 4: homogeneous MRMs with constant reward rates, and
// the KiBaMRM — the reward-inhomogeneous, two-reward MRM whose
// accumulated rewards are the two charge wells of the Kinetic Battery
// Model.
//
// A homogeneous MRM is a CTMC plus a reward rate r_i per state; the
// accumulated reward Y(t) = ∫ r_X(s) ds is the performability measure of
// Meyer. In the battery context the reward is energy drawn, and the
// battery lifetime is the first passage of Y(t) to the capacity.
//
// The KiBaMRM instead accumulates two rewards whose rates depend on the
// rewards themselves (reward-inhomogeneity), following the KiBaM
// differential equations; its numerical solution lives in internal/core.
package mrm

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
)

// ErrBadModel reports an inconsistent model definition.
var ErrBadModel = errors.New("mrm: invalid model")

// ConstantReward is a homogeneous Markov reward model: a CTMC with one
// constant reward rate per state.
type ConstantReward struct {
	// Chain is the underlying workload CTMC.
	Chain *ctmc.Chain
	// Rates holds the reward rate r_i for each state.
	Rates []float64
	// Initial is the initial state distribution α.
	Initial []float64
}

// Validate reports whether the model is well formed.
func (m ConstantReward) Validate() error {
	if m.Chain == nil {
		return fmt.Errorf("%w: nil chain", ErrBadModel)
	}
	n := m.Chain.NumStates()
	if len(m.Rates) != n {
		return fmt.Errorf("%w: %d reward rates for %d states", ErrBadModel, len(m.Rates), n)
	}
	for i, r := range m.Rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: reward rate %v in state %s", ErrBadModel, r, m.Chain.Name(i))
		}
	}
	if len(m.Initial) != n {
		return fmt.Errorf("%w: initial distribution has %d entries for %d states",
			ErrBadModel, len(m.Initial), n)
	}
	sum := 0.0
	for _, a := range m.Initial {
		if a < 0 {
			return fmt.Errorf("%w: negative initial probability", ErrBadModel)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: initial distribution sums to %v", ErrBadModel, sum)
	}
	return nil
}

// KiBaMRM is the paper's Section 4.2 model: a workload CTMC whose state
// i draws current I_i, coupled to a KiBaM battery. The two accumulated
// rewards are the available-charge well Y1 and the bound-charge well Y2,
// with the reward-inhomogeneous rates
//
//	r_{i,1}(y1, y2) = −I_i + k·(h2 − h1)   if h2 > h1 > 0, else −I_i·𝟙{y1>0}
//	r_{i,2}(y1, y2) = −k·(h2 − h1)         if h2 > h1 > 0, else 0.
type KiBaMRM struct {
	// Workload is the device's operating-mode CTMC.
	Workload *ctmc.Chain
	// Currents holds the energy-consumption rate I_i (ampere) drawn in
	// each workload state. Negative entries model charging states
	// (e.g. energy harvesting) and require AllowCharging.
	Currents []float64
	// Initial is the initial workload-state distribution.
	Initial []float64
	// Battery holds the KiBaM constants.
	Battery kibam.Params
	// AllowCharging permits negative currents: such states refill the
	// available-charge well (surplus beyond the well capacity is
	// discarded). The paper's model is discharge-only; this is the
	// extension its Section 2 reaction equations point at.
	AllowCharging bool
}

// Validate reports whether the model is well formed.
func (m KiBaMRM) Validate() error {
	if m.Workload == nil {
		return fmt.Errorf("%w: nil workload chain", ErrBadModel)
	}
	n := m.Workload.NumStates()
	if len(m.Currents) != n {
		return fmt.Errorf("%w: %d currents for %d states", ErrBadModel, len(m.Currents), n)
	}
	for i, c := range m.Currents {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: current %v in state %s", ErrBadModel, c, m.Workload.Name(i))
		}
		if c < 0 && !m.AllowCharging {
			return fmt.Errorf("%w: negative current %v in state %s without AllowCharging",
				ErrBadModel, c, m.Workload.Name(i))
		}
	}
	if len(m.Initial) != n {
		return fmt.Errorf("%w: initial distribution has %d entries for %d states",
			ErrBadModel, len(m.Initial), n)
	}
	sum := 0.0
	for _, a := range m.Initial {
		if a < 0 {
			return fmt.Errorf("%w: negative initial probability", ErrBadModel)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: initial distribution sums to %v", ErrBadModel, sum)
	}
	if err := m.Battery.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return nil
}

// MaxCurrent returns the largest per-state current magnitude, used for
// grid and rate bounds.
func (m KiBaMRM) MaxCurrent() float64 {
	maxI := 0.0
	for _, c := range m.Currents {
		if a := math.Abs(c); a > maxI {
			maxI = a
		}
	}
	return maxI
}
