// Package units provides the physical quantities used throughout the
// battery models: electric current, electric charge, and time, together
// with the unit conversions the paper mixes freely (Ampere-seconds for
// the second-domain experiments, milliampere-hours for the hour-domain
// ones).
//
// All quantities are represented as float64 in an explicit base unit:
// Current in ampere, Charge in coulomb (ampere-second), Duration in
// seconds. The named constructors and accessors make call sites
// self-describing and keep conversion factors in one place.
package units

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Conversion factors between the base units and the derived units used
// in the paper.
const (
	secondsPerHour  = 3600.0
	milliampsPerAmp = 1000.0
	// coulombsPerMAh is the charge, in ampere-seconds, of one
	// milliampere-hour: 1 mAh = 3.6 As.
	coulombsPerMAh = secondsPerHour / milliampsPerAmp
)

// Current is an electric current in ampere.
type Current float64

// Amperes constructs a Current from a value in ampere.
func Amperes(a float64) Current { return Current(a) }

// Milliamps constructs a Current from a value in milliampere.
func Milliamps(ma float64) Current { return Current(ma / milliampsPerAmp) }

// Amperes reports the current in ampere.
func (c Current) Amperes() float64 { return float64(c) }

// Milliamps reports the current in milliampere.
func (c Current) Milliamps() float64 { return float64(c) * milliampsPerAmp }

// String formats the current with an adaptive unit.
func (c Current) String() string {
	if abs(float64(c)) < 0.1 {
		return trimFloat(c.Milliamps()) + "mA"
	}
	return trimFloat(c.Amperes()) + "A"
}

// Charge is an electric charge in coulomb (ampere-second).
type Charge float64

// Coulombs constructs a Charge from a value in ampere-seconds.
func Coulombs(as float64) Charge { return Charge(as) }

// MilliampHours constructs a Charge from a value in mAh.
func MilliampHours(mah float64) Charge { return Charge(mah * coulombsPerMAh) }

// AmpHours constructs a Charge from a value in Ah.
func AmpHours(ah float64) Charge { return Charge(ah * coulombsPerMAh * milliampsPerAmp) }

// AmpereSeconds reports the charge in ampere-seconds.
func (q Charge) AmpereSeconds() float64 { return float64(q) }

// MilliampHours reports the charge in milliampere-hours.
func (q Charge) MilliampHours() float64 { return float64(q) / coulombsPerMAh }

// String formats the charge with an adaptive unit.
func (q Charge) String() string {
	if abs(float64(q)) >= 100 {
		return trimFloat(q.AmpereSeconds()) + "As"
	}
	return trimFloat(q.MilliampHours()) + "mAh"
}

// Duration is a span of time in seconds. The standard library's
// time.Duration has nanosecond resolution and a ~292-year range; battery
// lifetimes are continuous quantities produced by root finding, so a
// float64 in seconds is the appropriate representation here.
type Duration float64

// Seconds constructs a Duration from a value in seconds.
func Seconds(s float64) Duration { return Duration(s) }

// Minutes constructs a Duration from a value in minutes.
func Minutes(m float64) Duration { return Duration(m * 60) }

// Hours constructs a Duration from a value in hours.
func Hours(h float64) Duration { return Duration(h * secondsPerHour) }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Minutes reports the duration in minutes.
func (d Duration) Minutes() float64 { return float64(d) / 60 }

// Hours reports the duration in hours.
func (d Duration) Hours() float64 { return float64(d) / secondsPerHour }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	s := float64(d)
	switch {
	case abs(s) >= 2*secondsPerHour:
		return trimFloat(d.Hours()) + "h"
	case abs(s) >= 120:
		return trimFloat(d.Minutes()) + "min"
	default:
		return trimFloat(s) + "s"
	}
}

// Rate is a transition or flow rate in events per second.
type Rate float64

// PerHour constructs a Rate from a value in 1/h.
func PerHour(r float64) Rate { return Rate(r / secondsPerHour) }

// PerSecond reports the rate in 1/s.
func (r Rate) PerSecond() float64 { return float64(r) }

// ErrBadUnit reports an unparseable quantity string.
var ErrBadUnit = errors.New("units: unrecognised unit suffix")

// ParseCharge parses strings like "800mAh", "7200As", "2Ah".
func ParseCharge(s string) (Charge, error) {
	num, suffix, err := splitUnit(s)
	if err != nil {
		return 0, fmt.Errorf("parse charge %q: %w", s, err)
	}
	switch strings.ToLower(suffix) {
	case "as", "c":
		return Coulombs(num), nil
	case "mah":
		return MilliampHours(num), nil
	case "ah":
		return AmpHours(num), nil
	default:
		return 0, fmt.Errorf("parse charge %q: %w", s, ErrBadUnit)
	}
}

// ParseCurrent parses strings like "0.96A" or "200mA".
func ParseCurrent(s string) (Current, error) {
	num, suffix, err := splitUnit(s)
	if err != nil {
		return 0, fmt.Errorf("parse current %q: %w", s, err)
	}
	switch strings.ToLower(suffix) {
	case "a":
		return Amperes(num), nil
	case "ma":
		return Milliamps(num), nil
	default:
		return 0, fmt.Errorf("parse current %q: %w", s, ErrBadUnit)
	}
}

// ParseDuration parses strings like "90min", "2h", "15000s".
func ParseDuration(s string) (Duration, error) {
	num, suffix, err := splitUnit(s)
	if err != nil {
		return 0, fmt.Errorf("parse duration %q: %w", s, err)
	}
	switch strings.ToLower(suffix) {
	case "s", "sec":
		return Seconds(num), nil
	case "min", "m":
		return Minutes(num), nil
	case "h", "hr":
		return Hours(num), nil
	default:
		return 0, fmt.Errorf("parse duration %q: %w", s, ErrBadUnit)
	}
}

func splitUnit(s string) (float64, string, error) {
	s = strings.TrimSpace(s)
	i := len(s)
	for i > 0 {
		ch := s[i-1]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' || ch == '+' || ch == 'e' || ch == 'E' {
			break
		}
		i--
	}
	if i == 0 || i == len(s) {
		return 0, "", ErrBadUnit
	}
	num, err := strconv.ParseFloat(strings.TrimSpace(s[:i]), 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad number: %w", err)
	}
	return num, strings.TrimSpace(s[i:]), nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func trimFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', 6, 64)
}
