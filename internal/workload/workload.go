// Package workload builds the three stochastic workload models of the
// paper's Section 4.3: the Erlang-K on/off model (Figure 3), the simple
// three-state wireless-device model (Figure 4) and the six-state burst
// model (Figure 5), together with the steady-state calibration that
// makes the burst model comparable to the simple one.
//
// All models are expressed in SI units internally: transition rates in
// 1/s and currents in ampere. The paper quotes the wireless models in
// per-hour rates and milliampere; the constructors accept those units
// and convert.
package workload

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"batlife/internal/ctmc"
	"batlife/internal/units"
)

// ErrBadWorkload reports invalid workload parameters.
var ErrBadWorkload = errors.New("workload: invalid parameters")

// Model couples a workload CTMC with the current drawn in each state and
// an initial distribution — the "abstract workload model" of the paper's
// introduction.
type Model struct {
	// Chain is the operating-mode CTMC.
	Chain *ctmc.Chain
	// Currents holds the load current of each state, in ampere.
	Currents []float64
	// Initial is the initial state distribution.
	Initial []float64
}

// MeanCurrent returns the steady-state average current draw, in ampere.
func (m *Model) MeanCurrent() (float64, error) {
	pi, err := m.Chain.SteadyState()
	if err != nil {
		return 0, fmt.Errorf("workload: mean current: %w", err)
	}
	mean := 0.0
	for i, p := range pi {
		mean += p * m.Currents[i]
	}
	return mean, nil
}

// OnOff builds the Erlang-K on/off model of Figure 3: the workload
// cycles through K on-phases then K off-phases, all with rate
// λ = 2·f·K, so the expected on- and off-times are each 1/(2f) and the
// switching frequency is f. K = 1 gives exponential on/off times; as K
// grows they approach deterministic times. The on-states draw the given
// current; the model starts at the beginning of an on-period.
func OnOff(freq float64, k int, onCurrent units.Current) (*Model, error) {
	if freq <= 0 || math.IsNaN(freq) || math.IsInf(freq, 0) {
		return nil, fmt.Errorf("%w: frequency %v", ErrBadWorkload, freq)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: Erlang order %d", ErrBadWorkload, k)
	}
	if onCurrent.Amperes() <= 0 {
		return nil, fmt.Errorf("%w: on-current %v", ErrBadWorkload, onCurrent)
	}
	rate := 2 * freq * float64(k)
	var b ctmc.Builder
	phase := func(kind string, i int) string { return kind + strconv.Itoa(i) }
	for i := 0; i < k; i++ {
		next := phase("on", i+1)
		if i == k-1 {
			next = phase("off", 0)
		}
		b.Transition(phase("on", i), next, rate)
	}
	for i := 0; i < k; i++ {
		next := phase("off", i+1)
		if i == k-1 {
			next = phase("on", 0)
		}
		b.Transition(phase("off", i), next, rate)
	}
	chain, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: on/off model: %w", err)
	}
	currents := make([]float64, chain.NumStates())
	for i := 0; i < k; i++ {
		currents[chain.Index(phase("on", i))] = onCurrent.Amperes()
	}
	return &Model{
		Chain:    chain,
		Currents: currents,
		Initial:  chain.PointDistribution(chain.Index("on0")),
	}, nil
}

// SimpleConfig parameterises the simple wireless-device model. The zero
// value selects the paper's numbers.
type SimpleConfig struct {
	// Lambda is the data-arrival rate (idle→send and sleep→send), per
	// hour. Zero selects 2.
	Lambda float64
	// Mu is the send-completion rate (send→idle), per hour. Zero
	// selects 6 (10-minute average sends).
	Mu float64
	// Tau is the power-save rate (idle→sleep), per hour. Zero selects 1.
	Tau float64
	// IdleCurrent, SendCurrent and SleepCurrent are the per-state draws.
	// Zero values select the paper's 8 mA, 200 mA and 0 mA. To force a
	// true zero elsewhere use a negligible positive value.
	IdleCurrent  units.Current
	SendCurrent  units.Current
	SleepCurrent units.Current
}

func (c SimpleConfig) withDefaults() SimpleConfig {
	if c.Lambda == 0 {
		c.Lambda = 2
	}
	if c.Mu == 0 {
		c.Mu = 6
	}
	if c.Tau == 0 {
		c.Tau = 1
	}
	if c.IdleCurrent == 0 {
		c.IdleCurrent = units.Milliamps(8)
	}
	if c.SendCurrent == 0 {
		c.SendCurrent = units.Milliamps(200)
	}
	return c
}

// Simple builds the three-state model of Figure 4: idle→send (λ),
// idle→sleep (τ), sleep→send (λ), send→idle (µ). It starts in idle.
func Simple(cfg SimpleConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Lambda <= 0 || cfg.Mu <= 0 || cfg.Tau <= 0 {
		return nil, fmt.Errorf("%w: rates λ=%v µ=%v τ=%v", ErrBadWorkload, cfg.Lambda, cfg.Mu, cfg.Tau)
	}
	var b ctmc.Builder
	b.Transition("idle", "send", units.PerHour(cfg.Lambda).PerSecond())
	b.Transition("idle", "sleep", units.PerHour(cfg.Tau).PerSecond())
	b.Transition("sleep", "send", units.PerHour(cfg.Lambda).PerSecond())
	b.Transition("send", "idle", units.PerHour(cfg.Mu).PerSecond())
	chain, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: simple model: %w", err)
	}
	currents := make([]float64, chain.NumStates())
	currents[chain.Index("idle")] = cfg.IdleCurrent.Amperes()
	currents[chain.Index("send")] = cfg.SendCurrent.Amperes()
	currents[chain.Index("sleep")] = cfg.SleepCurrent.Amperes()
	return &Model{
		Chain:    chain,
		Currents: currents,
		Initial:  chain.PointDistribution(chain.Index("idle")),
	}, nil
}

// BurstConfig parameterises the burst model. The zero value selects the
// paper's numbers, with LambdaBurst = 182 per hour (the calibrated
// value; see CalibrateBurst).
type BurstConfig struct {
	// LambdaBurst is the on-idle→on-send rate per hour; zero selects
	// 182, the paper's calibration.
	LambdaBurst float64
	// SwitchOn is the flow-activation rate per hour; zero selects 1.
	SwitchOn float64
	// SwitchOff is the flow-deactivation rate per hour; zero selects 6.
	SwitchOff float64
	// Mu is the send-completion rate per hour; zero selects 6.
	Mu float64
	// Tau is the power-save rate (off-idle→sleep) per hour; zero
	// selects 1.
	Tau float64
	// IdleCurrent, SendCurrent and SleepCurrent are as in SimpleConfig.
	IdleCurrent  units.Current
	SendCurrent  units.Current
	SleepCurrent units.Current
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.LambdaBurst == 0 {
		c.LambdaBurst = 182
	}
	if c.SwitchOn == 0 {
		c.SwitchOn = 1
	}
	if c.SwitchOff == 0 {
		c.SwitchOff = 6
	}
	if c.Mu == 0 {
		c.Mu = 6
	}
	if c.Tau == 0 {
		c.Tau = 1
	}
	if c.IdleCurrent == 0 {
		c.IdleCurrent = units.Milliamps(8)
	}
	if c.SendCurrent == 0 {
		c.SendCurrent = units.Milliamps(200)
	}
	return c
}

// Burst builds the model of Figure 5. Data arrives in bursts: while the
// flow is on, sends start at the high rate λ_burst; while it is off the
// device may fall asleep. States: on-idle, off-idle, on-send, off-send,
// sleep; it starts in off-idle.
func Burst(cfg BurstConfig) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.LambdaBurst <= 0 || cfg.SwitchOn <= 0 || cfg.SwitchOff <= 0 || cfg.Mu <= 0 || cfg.Tau <= 0 {
		return nil, fmt.Errorf("%w: non-positive burst rate", ErrBadWorkload)
	}
	perHour := func(r float64) float64 { return units.PerHour(r).PerSecond() }
	var b ctmc.Builder
	b.Transition("on-idle", "on-send", perHour(cfg.LambdaBurst))
	b.Transition("on-send", "on-idle", perHour(cfg.Mu))
	b.Transition("off-send", "off-idle", perHour(cfg.Mu))
	b.Transition("on-idle", "off-idle", perHour(cfg.SwitchOff))
	b.Transition("on-send", "off-send", perHour(cfg.SwitchOff))
	b.Transition("off-idle", "on-idle", perHour(cfg.SwitchOn))
	b.Transition("off-send", "on-send", perHour(cfg.SwitchOn))
	b.Transition("off-idle", "sleep", perHour(cfg.Tau))
	b.Transition("sleep", "on-idle", perHour(cfg.SwitchOn))
	chain, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: burst model: %w", err)
	}
	currents := make([]float64, chain.NumStates())
	currents[chain.Index("on-idle")] = cfg.IdleCurrent.Amperes()
	currents[chain.Index("off-idle")] = cfg.IdleCurrent.Amperes()
	currents[chain.Index("on-send")] = cfg.SendCurrent.Amperes()
	currents[chain.Index("off-send")] = cfg.SendCurrent.Amperes()
	currents[chain.Index("sleep")] = cfg.SleepCurrent.Amperes()
	return &Model{
		Chain:    chain,
		Currents: currents,
		Initial:  chain.PointDistribution(chain.Index("off-idle")),
	}, nil
}

// SendProbability returns the steady-state probability of being in a
// sending state (send, or on-send/off-send).
func (m *Model) SendProbability() (float64, error) {
	pi, err := m.Chain.SteadyState()
	if err != nil {
		return 0, fmt.Errorf("workload: send probability: %w", err)
	}
	p := 0.0
	for _, name := range []string{"send", "on-send", "off-send"} {
		if i := m.Chain.Index(name); i >= 0 {
			p += pi[i]
		}
	}
	return p, nil
}

// CalibrateBurst finds λ_burst such that the burst model's steady-state
// send probability matches target (the paper matches the simple model's
// 1/4 and obtains λ_burst = 182 per hour). All other rates are taken
// from cfg.
func CalibrateBurst(cfg BurstConfig, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("%w: target send probability %v", ErrBadWorkload, target)
	}
	probAt := func(lb float64) (float64, error) {
		c := cfg
		c.LambdaBurst = lb
		m, err := Burst(c)
		if err != nil {
			return 0, err
		}
		return m.SendProbability()
	}
	// The send probability is increasing in λ_burst; bracket and bisect.
	lo, hi := 1e-6, 1.0
	for {
		p, err := probAt(hi)
		if err != nil {
			return 0, err
		}
		if p >= target {
			break
		}
		hi *= 2
		if hi > 1e9 {
			return 0, fmt.Errorf("%w: send probability %v unreachable", ErrBadWorkload, target)
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		p, err := probAt(mid)
		if err != nil {
			return 0, err
		}
		if p < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
