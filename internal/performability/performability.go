// Package performability computes the exact distribution of accumulated
// reward in a homogeneous Markov reward model with constant, finite
// reward rates — the performability distribution of Meyer.
//
// The paper obtains the "exact" curve of Figure 10 (C = 800 mAh, c = 1)
// with Sericola's uniformisation-based occupation-time algorithm [25].
// This package computes the same quantity through the transform domain
// (see DESIGN.md, substitution 3): for reward rates r and generator Q,
//
//	E[exp(−s·Y(t))] = α · exp((Q − s·diag(r))·t) · 𝟙,
//
// a classical identity obtained by conditioning on the state process.
// The Laplace–Stieltjes transform is inverted numerically with the
// Abate–Whitt Euler algorithm, giving Pr{Y(t) ≤ y} to roughly 1e−8 —
// far below every other error source in the paper's experiments.
//
// For a battery with all charge available (c = 1) and capacity C, the
// accumulated energy Y(t) is non-decreasing, so the battery-lifetime
// distribution is the first-passage dual Pr{L ≤ t} = Pr{Y(t) ≥ C}.
package performability

import (
	"context"
	"errors"
	"fmt"
	"math"

	"batlife/internal/linalg"
	"batlife/internal/mrm"
)

// ErrBadQuery reports invalid evaluation arguments.
var ErrBadQuery = errors.New("performability: invalid query")

// euler holds the Abate–Whitt Euler-summation constants: discretisation
// parameter A (controls aliasing error, e^-A), n regular terms and m
// binomial averaging terms.
const (
	eulerA = 18.4
	eulerN = 15
	eulerM = 11
)

// Distribution returns F(t, y) = Pr{Y(t) ≤ y} for the accumulated
// reward of the model at time t. Rates may be any finite reals; y may be
// any real. At atoms of Y(t) (e.g. y = r_i·t reachable by never leaving
// state i) the inversion converges to the midpoint of the jump.
//
//numlint:ignore testonly oracle tier: the exact reward distribution
func Distribution(m mrm.ConstantReward, t, y float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("performability: %w", err)
	}
	f, _, err := distributionCounted(m, t, y)
	return f, err
}

// distributionCounted is Distribution without the model validation (the
// caller has already validated), additionally reporting the number of
// transform evaluations spent — the matrix-exponential work unit that
// Stats surfaces to the facade.
func distributionCounted(m mrm.ConstantReward, t, y float64) (float64, int, error) {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, 0, fmt.Errorf("%w: time %v", ErrBadQuery, t)
	}
	if math.IsNaN(y) {
		return 0, 0, fmt.Errorf("%w: level NaN", ErrBadQuery)
	}
	// Support bounds: Y(t) ∈ [min r·t, max r·t].
	minR, maxR := rateRange(m.Rates)
	if t == 0 {
		if y >= 0 {
			return 1, 0, nil
		}
		return 0, 0, nil
	}
	if y >= maxR*t {
		return 1, 0, nil
	}
	if y < minR*t {
		return 0, 0, nil
	}
	// Shift rewards so the minimum rate is zero: Y(t) = minR·t + Y'(t)
	// with Y' having non-negative rates. The inversion then works on a
	// non-negative random variable, which Euler summation requires.
	shifted := make([]float64, len(m.Rates))
	for i, r := range m.Rates {
		shifted[i] = r - minR
	}
	yPrime := y - minR*t
	if yPrime <= 0 {
		// Left edge of the support: Pr{Y' ≤ 0} = Pr{Y' = 0}, the
		// probability of spending all of [0, t] in minimum-rate states.
		// The inversion cannot resolve the boundary atom, so compute it
		// directly via the taboo process restricted to those states.
		// One restricted matrix exponential ≈ one transform evaluation.
		return atomAtZero(m, shifted, t), 1, nil
	}
	f, err := invert(m, shifted, t, yPrime)
	return f, eulerN + eulerM + 1, err
}

// EnergyDepletionCDF returns Pr{Y(t) ≥ capacity} at each time — the
// exact battery-lifetime CDF of a c = 1 battery under the workload MRM,
// by first-passage duality. All reward rates must be non-negative (they
// are currents) and capacity positive.
func EnergyDepletionCDF(m mrm.ConstantReward, capacity float64, times []float64) ([]float64, error) {
	probs, _, err := EnergyDepletionCDFStats(m, capacity, times, nil)
	return probs, err
}

// Stats summarises the work behind one EnergyDepletionCDFStats call, in
// the shape the facade reports for every analysis: the size of the
// model that was solved and an iteration count — here the number of
// transform-domain evaluations φ(s) performed by the Euler inversion.
type Stats struct {
	// States and Transitions describe the workload CTMC.
	States, Transitions int
	// TransformEvals counts evaluations of the Laplace transform
	// φ(s) = α·exp((Q − s·diag(r))t)·𝟙, the unit of work of the
	// inversion (each costs one complex matrix exponential).
	TransformEvals int
}

// EnergyDepletionCDFStats is EnergyDepletionCDF with work statistics
// and optional cancellation: a non-nil ctx is checked between time
// points and aborts the evaluation with an error wrapping ctx.Err().
func EnergyDepletionCDFStats(m mrm.ConstantReward, capacity float64, times []float64, ctx context.Context) ([]float64, Stats, error) {
	var stats Stats
	if err := m.Validate(); err != nil {
		return nil, stats, fmt.Errorf("performability: %w", err)
	}
	stats.States = m.Chain.NumStates()
	stats.Transitions = m.Chain.Generator().NNZ()
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, stats, fmt.Errorf("%w: capacity %v", ErrBadQuery, capacity)
	}
	for _, r := range m.Rates {
		if r < 0 {
			return nil, stats, fmt.Errorf("%w: negative reward rate %v (currents required)", ErrBadQuery, r)
		}
	}
	out := make([]float64, len(times))
	for k, t := range times {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, stats, fmt.Errorf("performability: cancelled at time point %d: %w", k, err)
			}
		}
		f, evals, err := distributionCounted(m, t, capacity)
		stats.TransformEvals += evals
		if err != nil {
			return nil, stats, err
		}
		p := 1 - f
		out[k] = math.Min(1, math.Max(0, p))
	}
	return out, stats, nil
}

func rateRange(rates []float64) (minR, maxR float64) {
	minR, maxR = rates[0], rates[0]
	for _, r := range rates[1:] {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	return minR, maxR
}

// atomAtZero returns Pr{X(s) in zero-rate states for all s ≤ t}, the
// probability mass of the shifted reward at zero, via the sub-generator
// restricted to the zero-rate states.
func atomAtZero(m mrm.ConstantReward, shifted []float64, t float64) float64 {
	var zero []int
	for i, r := range shifted {
		if r == 0 {
			zero = append(zero, i)
		}
	}
	if len(zero) == 0 {
		return 0
	}
	// Taboo transient solution on the restricted sub-generator.
	sub := linalg.NewMatC(len(zero))
	pos := make(map[int]int, len(zero))
	for k, i := range zero {
		pos[i] = k
	}
	for k, i := range zero {
		m.Chain.Generator().Row(i, func(col int, v float64) {
			if kk, ok := pos[col]; ok {
				sub.Set(k, kk, complex(v*t, 0))
			}
		})
	}
	exp := sub.Exp()
	alpha := make([]complex128, len(zero))
	for k, i := range zero {
		alpha[k] = complex(m.Initial[i], 0)
	}
	row, err := exp.MulVecLeft(alpha)
	if err != nil {
		return 0 // cannot happen: dimensions match by construction
	}
	sum := 0.0
	for _, v := range row {
		sum += real(v)
	}
	return math.Min(1, math.Max(0, sum))
}

// transform evaluates φ(s) = α·exp((Q − s·R)t)·𝟙 for complex s.
func transform(m mrm.ConstantReward, shifted []float64, t float64, s complex128) complex128 {
	n := m.Chain.NumStates()
	a := linalg.NewMatC(n)
	for i := 0; i < n; i++ {
		m.Chain.Generator().Row(i, func(col int, v float64) {
			a.Set(i, col, a.At(i, col)+complex(v, 0))
		})
		a.Set(i, i, a.At(i, i)-s*complex(shifted[i], 0))
	}
	a.Scale(complex(t, 0))
	exp := a.Exp()
	alpha := make([]complex128, n)
	for i := 0; i < n; i++ {
		alpha[i] = complex(m.Initial[i], 0)
	}
	row, err := exp.MulVecLeft(alpha)
	if err != nil {
		return 0 // cannot happen: dimensions match by construction
	}
	var sum complex128
	for _, v := range row {
		sum += v
	}
	return sum
}

// invert computes Pr{Y'(t) ≤ y} by Abate–Whitt Euler summation of the
// Bromwich integral for φ(s)/s.
func invert(m mrm.ConstantReward, shifted []float64, t, y float64) (float64, error) {
	if y <= 0 || math.IsNaN(y) {
		return 0, fmt.Errorf("%w: inversion requires a positive reward bound, got y=%v", ErrBadQuery, y)
	}
	// Partial sums of the alternating series.
	fhat := func(s complex128) complex128 {
		return transform(m, shifted, t, s) / s
	}
	base := eulerA / (2 * y)
	sum := 0.5 * real(fhat(complex(base, 0)))
	partial := make([]float64, 0, eulerN+eulerM+1)
	for k := 1; k <= eulerN+eulerM; k++ {
		term := real(fhat(complex(base, float64(k)*math.Pi/y)))
		if k%2 == 1 {
			term = -term
		}
		sum += term
		if k >= eulerN {
			partial = append(partial, sum)
		}
	}
	// Binomial (Euler) averaging of the last m+1 partial sums.
	avg := 0.0
	binom := 1.0
	total := 0.0
	for j := 0; j <= eulerM; j++ {
		avg += binom * partial[j]
		total += binom
		binom *= float64(eulerM-j) / float64(j+1)
	}
	avg /= total
	f := math.Exp(eulerA/2) / y * avg
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: inversion diverged at t=%v y=%v", ErrBadQuery, t, y)
	}
	return math.Min(1, math.Max(0, f)), nil
}
