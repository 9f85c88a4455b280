// Package check is the runtime numerical-invariant layer of the solver
// pipeline.
//
// Every function is a no-op unless the build carries the "debugchecks"
// tag (go test -tags debugchecks ./...). Enabled is an untyped constant,
// so in release builds the compiler eliminates both the calls and their
// loop bodies — the hot paths pay nothing. With the tag set, a violated
// invariant panics with the offending site and value: a silent NaN, a
// generator row that does not sum to zero, or a malformed CSR corrupts
// an entire lifetime distribution without any visible failure, and a
// loud early panic in a debug run is the cheapest place to catch it.
//
// The package deliberately imports nothing from the rest of the module;
// matrix-shaped arguments arrive through the small Generator and
// Validator interfaces so that internal/sparse can call into check
// without an import cycle.
package check

import (
	"fmt"
	"math"
)

// probTol bounds how far a probability vector's mass may drift from 1,
// and how negative a rounded-to-negative entry may be. Uniformisation
// accumulates ~n·ulp of drift over 1e5-term windows, so 1e-8 leaves
// two orders of headroom over honest rounding while still catching
// real mass leaks.
const probTol = 1e-8

// genTol is the per-row tolerance, relative to the largest magnitude in
// the row, for generator row sums.
const genTol = 1e-9

// Generator is the slice of the sparse-matrix API the generator-row
// invariant needs; *sparse.CSR satisfies it.
type Generator interface {
	Rows() int
	Row(r int, fn func(col int, v float64))
}

// Validator is anything with a structural self-check; *sparse.CSR and
// *sparse.Banded satisfy it.
type Validator interface {
	Validate() error
}

// failf panics with a uniform prefix so violations are greppable.
func failf(site, format string, args ...any) {
	panic("check: " + site + ": " + fmt.Sprintf(format, args...))
}

// Finite asserts every x is neither NaN nor ±Inf.
//
//numlint:asserts finite(xs)
//numlint:ignore testonly called only by the generated debugchecks contract shims
func Finite(site string, xs ...float64) {
	if !Enabled {
		return
	}
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			failf(site, "value %d is not finite: %v", i, x)
		}
	}
}

// FiniteVec asserts every element of v is finite.
//
//numlint:asserts finite(v)
func FiniteVec(site string, v []float64) {
	if !Enabled {
		return
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			failf(site, "element %d is not finite: %v", i, x)
		}
	}
}

// NonNegative asserts every element of v is finite and >= -probTol.
//
//numlint:asserts nonnegative(v)
func NonNegative(site string, v []float64) {
	if !Enabled {
		return
	}
	for i, x := range v {
		if !(x >= -probTol) { // catches NaN too
			failf(site, "element %d is negative or NaN: %v", i, x)
		}
		if math.IsInf(x, 0) {
			failf(site, "element %d is infinite", i)
		}
	}
}

// Probabilities asserts v is a probability distribution: finite,
// non-negative entries summing to 1 within probTol.
//
//numlint:asserts normalized(v)
func Probabilities(site string, v []float64) {
	if !Enabled {
		return
	}
	sum := 0.0
	for i, x := range v {
		if !(x >= -probTol) || math.IsInf(x, 0) {
			failf(site, "element %d is not a probability: %v", i, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > probTol {
		failf(site, "mass is %v, want 1 (|drift| %v > %v)", sum, math.Abs(sum-1), probTol)
	}
}

// UnitInterval asserts every element of v lies in [0, 1] within probTol.
//
//numlint:asserts unitinterval(v)
func UnitInterval(site string, v []float64) {
	if !Enabled {
		return
	}
	for i, x := range v {
		if !(x >= -probTol && x <= 1+probTol) {
			failf(site, "element %d is outside [0,1]: %v", i, x)
		}
	}
}

// GeneratorRows asserts g is an infinitesimal generator: finite entries,
// non-negative off-diagonal, non-positive diagonal, and every row
// summing to zero within genTol relative to the row's largest magnitude.
func GeneratorRows(site string, g Generator) {
	if !Enabled {
		return
	}
	// One visitor for every row: a closure per row would put its
	// captured state on the heap once per row of the chain.
	var (
		r          int
		sum, scale float64
		bad        bool
	)
	visit := func(col int, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = true
			return
		}
		if col == r {
			if v > 0 {
				bad = true
			}
		} else if v < 0 {
			bad = true
		}
		sum += v
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for r = 0; r < g.Rows(); r++ {
		sum, scale, bad = 0, 1, false
		g.Row(r, visit)
		if bad {
			failf(site, "row %d has an invalid generator entry", r)
		}
		if math.Abs(sum) > genTol*scale {
			failf(site, "row %d sums to %v (tolerance %v)", r, sum, genTol*scale)
		}
	}
}

// CSRWellFormed asserts the matrix (CSR or banded) passes its
// structural self-check.
func CSRWellFormed(site string, m Validator) {
	if !Enabled {
		return
	}
	if err := m.Validate(); err != nil {
		failf(site, "malformed matrix: %v", err)
	}
}
