// Package peukert implements the two simplest battery-lifetime models
// the paper's Section 2 uses as a foil for the KiBaM: the ideal linear
// battery, L = C/I, and Peukert's law, L = a/I^b.
//
// Both models are purely analytical and, deliberately, both mispredict
// variable loads: under Peukert's law all load profiles with the same
// average current have the same lifetime, which experiments falsify.
// They serve as baselines in the benchmark harness.
package peukert

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadParams reports invalid model parameters.
var ErrBadParams = errors.New("peukert: invalid parameters")

// Ideal is the ideal linear battery with a fixed capacity in
// ampere-seconds: every coulomb is delivered regardless of rate.
type Ideal struct {
	// Capacity is the battery capacity in ampere-seconds.
	Capacity float64
}

// Lifetime returns C/I, the ideal lifetime under constant load.
//
//numlint:ignore testonly deletion deferred: its only tests go with it
func (b Ideal) Lifetime(current float64) (float64, error) {
	if b.Capacity <= 0 {
		return 0, fmt.Errorf("%w: capacity %v", ErrBadParams, b.Capacity)
	}
	if current <= 0 {
		return 0, fmt.Errorf("%w: current %v", ErrBadParams, current)
	}
	return b.Capacity / current, nil
}

// Law is Peukert's law with constants a > 0 and b > 1.
type Law struct {
	// A is the numerator constant; for b = 1 it equals the capacity.
	A float64
	// B is Peukert's exponent, > 1 for real batteries.
	B float64
}

// Validate reports whether the constants are usable.
func (l Law) Validate() error {
	if l.A <= 0 || math.IsNaN(l.A) || math.IsInf(l.A, 0) {
		return fmt.Errorf("%w: a = %v", ErrBadParams, l.A)
	}
	if l.B < 1 || math.IsNaN(l.B) || math.IsInf(l.B, 0) {
		return fmt.Errorf("%w: b = %v (must be >= 1)", ErrBadParams, l.B)
	}
	return nil
}

// Lifetime returns a/I^b, the Peukert lifetime under constant load.
func (l Law) Lifetime(current float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if current <= 0 {
		return 0, fmt.Errorf("%w: current %v", ErrBadParams, current)
	}
	return l.A / math.Pow(current, l.B), nil
}

// LifetimeAverage applies Peukert's law to the average current of a duty
// cycle — the (wrong for real batteries) prediction that all profiles
// with the same mean behave alike.
//
//numlint:ignore testonly deletion deferred: its only tests go with it
func (l Law) LifetimeAverage(onCurrent, duty float64) (float64, error) {
	if duty <= 0 || duty > 1 {
		return 0, fmt.Errorf("%w: duty %v", ErrBadParams, duty)
	}
	return l.Lifetime(onCurrent * duty)
}

// Measurement is one (current, lifetime) observation from a constant-
// current discharge test.
type Measurement struct {
	// Current is the discharge current in ampere.
	Current float64
	// Lifetime is the observed time to empty in seconds.
	Lifetime float64
}

// FitSweep determines a and b from two or more measurements by ordinary
// least squares on log L = log a − b·log I. With exactly two
// measurements it coincides with Fit.
//
//numlint:ignore testonly deletion deferred: its only tests go with it
func FitSweep(points []Measurement) (Law, error) {
	if len(points) < 2 {
		return Law{}, fmt.Errorf("%w: need at least two measurements, got %d", ErrBadParams, len(points))
	}
	var sumX, sumY, sumXX, sumXY float64
	for _, p := range points {
		if p.Current <= 0 || p.Lifetime <= 0 {
			return Law{}, fmt.Errorf("%w: measurement %+v must be positive", ErrBadParams, p)
		}
		x, y := math.Log(p.Current), math.Log(p.Lifetime)
		sumX += x
		sumY += y
		sumXX += x * x
		sumXY += x * y
	}
	n := float64(len(points))
	det := n*sumXX - sumX*sumX
	if math.Abs(det) < 1e-12*(1+n*sumXX) {
		return Law{}, fmt.Errorf("%w: measurements share a single current", ErrBadParams)
	}
	slope := (n*sumXY - sumX*sumY) / det
	intercept := (sumY - slope*sumX) / n
	law := Law{A: math.Exp(intercept), B: -slope}
	if err := law.Validate(); err != nil {
		return Law{}, fmt.Errorf("peukert: sweep fit produced %+v: %w", law, err)
	}
	return law, nil
}

// Fit determines a and b from two measured (current, lifetime) pairs by
// solving the log-linear system. The currents must differ.
func Fit(i1, l1, i2, l2 float64) (Law, error) {
	if i1 <= 0 || i2 <= 0 || l1 <= 0 || l2 <= 0 {
		return Law{}, fmt.Errorf("%w: measurements must be positive", ErrBadParams)
	}
	//numlint:ignore floatcmp distinctness check on caller-supplied measurements; near-equal pairs are rejected by Law.Validate
	if i1 == i2 {
		return Law{}, fmt.Errorf("%w: need two distinct currents", ErrBadParams)
	}
	// log L = log a − b·log I.
	b := -(math.Log(l1) - math.Log(l2)) / (math.Log(i1) - math.Log(i2))
	a := l1 * math.Pow(i1, b)
	law := Law{A: a, B: b}
	if err := law.Validate(); err != nil {
		return Law{}, fmt.Errorf("peukert: fit produced %+v: %w", law, err)
	}
	return law, nil
}
