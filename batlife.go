// Package batlife computes battery lifetime distributions for
// battery-powered devices modelled as stochastic workloads, implementing
// the methods of Cloth, Jongerden and Haverkort, "Computing Battery
// Lifetime Distributions" (DSN 2007).
//
// A device is described by a Workload — a continuous-time Markov chain
// over operating modes, each drawing a given current — and a Battery
// following the Kinetic Battery Model (KiBaM): charge is split between
// an available-charge well that feeds the load and a bound-charge well
// that replenishes it, so that intermittent loads recover charge during
// idle periods and outlive continuous loads of the same average power.
//
// Three complementary analyses are provided:
//
//   - Solver.LifetimeDistribution: the paper's Markovian approximation.
//     The joint (workload state, charge) space is discretised with step
//     Δ and the lifetime CDF Pr{battery empty at t} is computed as the
//     transient solution of the expanded CTMC via uniformisation.
//   - Simulate: Monte-Carlo estimation — workload trajectories are
//     sampled and the battery follows the exact analytic KiBaM between
//     jumps.
//   - Solver.ExactCDF: for batteries with all charge available (c = 1),
//     the exact distribution via the performability transform.
//
// Deterministic (non-stochastic) load profiles are served by the Battery
// methods Lifetime and LifetimeSquareWave directly on the analytic
// model.
//
// The stochastic analyses run on a Solver: it caches expanded CTMCs —
// keyed on (battery, workload, Δ) — together with their uniformised
// operators, Fox–Glynn weight tables and memoised results, accepts
// per-call AnalysisOptions (epsilon, iteration budget, cancellation,
// progress), and evaluates whole scenario grids in parallel via
// Solver.Sweep.
//
// The paper's experiments are regenerated by cmd/paperfigs; runnable
// introductions live under examples/.
package batlife

import (
	"errors"
	"fmt"

	"batlife/internal/ctmc"
	"batlife/internal/dist"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/sim"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// ErrBadArgument reports invalid facade arguments.
var ErrBadArgument = errors.New("batlife: invalid argument")

// Battery is a KiBaM battery.
type Battery struct {
	// CapacityAs is the total capacity C in ampere-seconds
	// (1 mAh = 3.6 As; see MilliampHours).
	CapacityAs float64
	// AvailableFraction is the KiBaM constant c in (0, 1]: the fraction
	// of the capacity in the available-charge well. 1 models an ideal
	// battery with all charge usable at any rate.
	AvailableFraction float64
	// FlowRate is the KiBaM well-flow constant k in 1/s.
	FlowRate float64
}

// MilliampHours converts a capacity in mAh to ampere-seconds.
func MilliampHours(mah float64) float64 {
	return units.MilliampHours(mah).AmpereSeconds()
}

// PaperBattery returns the 2000 mAh cell used throughout the paper's
// experiments: C = 7200 As, c = 0.625, k = 4.5e-5 /s.
func PaperBattery() Battery {
	return Battery{CapacityAs: 7200, AvailableFraction: 0.625, FlowRate: 4.5e-5}
}

func (b Battery) params() kibam.Params {
	return kibam.Params{Capacity: b.CapacityAs, C: b.AvailableFraction, K: b.FlowRate}
}

// Validate reports whether the battery constants are usable.
func (b Battery) Validate() error {
	if err := b.params().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgument, err)
	}
	return nil
}

// Lifetime returns the battery lifetime in seconds under a constant
// load, using the analytic KiBaM.
func (b Battery) Lifetime(currentA float64) (float64, error) {
	if currentA <= 0 {
		return 0, fmt.Errorf("%w: current %v", ErrBadArgument, currentA)
	}
	life, err := b.params().Lifetime(kibam.ConstantLoad(currentA))
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return life, nil
}

// LifetimeSquareWave returns the battery lifetime in seconds under an
// on/off square wave: currentA during the on phase (duty fraction of
// each period, 0 selects 1/2), zero otherwise.
func (b Battery) LifetimeSquareWave(currentA, freqHz, duty float64) (float64, error) {
	if currentA <= 0 || freqHz <= 0 || duty < 0 || duty >= 1 {
		return 0, fmt.Errorf("%w: current %v, frequency %v, duty %v",
			ErrBadArgument, currentA, freqHz, duty)
	}
	life, err := b.params().Lifetime(kibam.SquareWave{On: currentA, Frequency: freqHz, Duty: duty})
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return life, nil
}

// CalibrateFlowRate returns the flow constant k for which the battery's
// lifetime under the given constant load equals targetSeconds — the
// paper's procedure for fitting k to measurements.
func (b Battery) CalibrateFlowRate(currentA, targetSeconds float64) (float64, error) {
	k, err := kibam.CalibrateK(b.CapacityAs, b.AvailableFraction, currentA, targetSeconds)
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return k, nil
}

// Workload is a stochastic device model: a CTMC over operating modes
// with a current draw per mode.
type Workload struct {
	model    *workload.Model
	charging bool
}

// StateSpec describes one operating mode of a custom workload.
type StateSpec struct {
	// Name identifies the mode.
	Name string
	// CurrentA is the load drawn in this mode, in ampere. Negative
	// values model charging modes (energy harvesting): they refill the
	// battery's available charge, with surplus beyond the well capacity
	// discarded.
	CurrentA float64
}

// TransitionSpec describes one transition of a custom workload.
type TransitionSpec struct {
	// From and To name the endpoint modes.
	From, To string
	// RatePerSec is the exponential transition rate in 1/s.
	RatePerSec float64
}

// NewWorkload builds a custom workload from modes, transitions and the
// name of the initial mode.
func NewWorkload(states []StateSpec, transitions []TransitionSpec, initial string) (*Workload, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("%w: no states", ErrBadArgument)
	}
	var b ctmc.Builder
	for _, s := range states {
		b.State(s.Name)
	}
	for _, tr := range transitions {
		b.Transition(tr.From, tr.To, tr.RatePerSec)
	}
	chain, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("batlife: workload: %w", err)
	}
	currents := make([]float64, chain.NumStates())
	charging := false
	for _, s := range states {
		currents[chain.Index(s.Name)] = s.CurrentA
		if s.CurrentA < 0 {
			charging = true
		}
	}
	init := chain.Index(initial)
	if init < 0 {
		return nil, fmt.Errorf("%w: unknown initial state %q", ErrBadArgument, initial)
	}
	return &Workload{
		model: &workload.Model{
			Chain:    chain,
			Currents: currents,
			Initial:  chain.PointDistribution(init),
		},
		charging: charging,
	}, nil
}

// OnOffWorkload builds the Erlang-K on/off workload of the paper's
// Figure 3: mean on- and off-times of 1/(2·freqHz) each, drawing
// onCurrentA while on. erlangK = 1 gives exponential phase durations;
// larger K approaches deterministic switching.
func OnOffWorkload(freqHz float64, erlangK int, onCurrentA float64) (*Workload, error) {
	m, err := workload.OnOff(freqHz, erlangK, units.Amperes(onCurrentA))
	if err != nil {
		return nil, fmt.Errorf("batlife: %w", err)
	}
	return &Workload{model: m}, nil
}

// SimpleWireless builds the paper's simple wireless-device model
// (Figure 4): idle (8 mA) with data arriving twice an hour, send
// (200 mA) lasting 10 minutes on average, sleep (0 mA) entered from idle
// about once an hour.
func SimpleWireless() (*Workload, error) {
	m, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		return nil, fmt.Errorf("batlife: %w", err)
	}
	return &Workload{model: m}, nil
}

// BurstWireless builds the paper's burst model (Figure 5): data arrives
// in bursts, letting the device sleep between them while matching the
// simple model's overall send activity.
func BurstWireless() (*Workload, error) {
	m, err := workload.Burst(workload.BurstConfig{})
	if err != nil {
		return nil, fmt.Errorf("batlife: %w", err)
	}
	return &Workload{model: m}, nil
}

// States returns the workload's mode names.
func (w *Workload) States() []string {
	names := make([]string, w.model.Chain.NumStates())
	for i := range names {
		names[i] = w.model.Chain.Name(i)
	}
	return names
}

// MeanCurrent returns the steady-state average draw in ampere.
func (w *Workload) MeanCurrent() (float64, error) {
	mean, err := w.model.MeanCurrent()
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return mean, nil
}

func (w *Workload) kibamrm(b Battery) mrm.KiBaMRM {
	return mrm.KiBaMRM{
		Workload:      w.model.Chain,
		Currents:      w.model.Currents,
		Initial:       w.model.Initial,
		Battery:       b.params(),
		AllowCharging: w.charging,
	}
}

// Distribution is a computed lifetime distribution.
type Distribution struct {
	// Times are the evaluation points in seconds.
	Times []float64
	// EmptyProb[k] is Pr{battery empty at Times[k]}.
	EmptyProb []float64
	// States and Transitions describe the expanded CTMC that was
	// solved; Iterations counts uniformisation steps.
	States, Transitions, Iterations int
}

// Samples holds simulated lifetime draws.
type Samples struct {
	ecdf *dist.ECDF
}

// SimulateOptions tunes Simulate.
type SimulateOptions struct {
	// Runs is the number of independent samples; 0 selects 1000, the
	// paper's choice.
	Runs int
	// Seed makes the samples reproducible.
	Seed int64
	// MaxTimeSeconds censors runs that survive beyond this horizon
	// (they are counted by Samples.Censored and excluded from moments).
	// 0 selects 100 × capacity / max current — generous for duty cycles
	// near 1, too short for deeply duty-cycled workloads; set it
	// explicitly for those.
	MaxTimeSeconds float64
}

// Simulate draws independent lifetime samples by Monte-Carlo
// simulation of the workload, with the battery following the analytic
// KiBaM between jumps; opts sets the run count, the seed that makes the
// samples reproducible, and the censoring horizon.
func Simulate(b Battery, w *Workload, opts SimulateOptions) (*Samples, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadArgument)
	}
	if w.charging {
		return nil, fmt.Errorf("%w: the simulator does not support charging workloads; use Solver.LifetimeDistribution", ErrBadArgument)
	}
	e, err := sim.Lifetimes(w.kibamrm(b), opts.Seed, sim.Options{
		Runs:    opts.Runs,
		MaxTime: opts.MaxTimeSeconds,
	})
	if err != nil {
		return nil, fmt.Errorf("batlife: %w", err)
	}
	return &Samples{ecdf: e}, nil
}

// CDF evaluates the empirical lifetime CDF at the given times.
func (s *Samples) CDF(times []float64) []float64 { return s.ecdf.Eval(times) }

// Mean returns the average sampled lifetime in seconds.
func (s *Samples) Mean() (float64, error) {
	m, err := s.ecdf.Mean()
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return m, nil
}

// Quantile returns the p-quantile of the sampled lifetimes.
func (s *Samples) Quantile(p float64) (float64, error) {
	q, err := s.ecdf.Quantile(p)
	if err != nil {
		return 0, fmt.Errorf("batlife: %w", err)
	}
	return q, nil
}

// N reports the number of samples.
func (s *Samples) N() int { return s.ecdf.N() }

// Censored reports how many runs outlived the censoring horizon.
func (s *Samples) Censored() int { return s.ecdf.Censored() }
