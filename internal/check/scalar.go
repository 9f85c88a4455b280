// Scalar invariant asserts, the runtime counterparts of the numlint
// contract predicates (see tools/numlint/internal/summary): the
// debugchecks shims generated by `numlint -gen-checks` call these to
// re-check //numlint:requires and //numlint:ensures clauses that the
// static analysis either proved or classified as runtime-only. The
// //numlint:asserts directives below feed the same facts back into the
// static lattices, so a hand-written call to one of these guards a
// value for divguard and the contract analyzer exactly like a branch
// does.

package check

import "math"

// Positive asserts every x is strictly greater than zero (NaN fails).
//
//numlint:asserts positive(xs)
//numlint:ignore testonly called only by the generated debugchecks contract shims
func Positive(site string, xs ...float64) {
	if !Enabled {
		return
	}
	for i, x := range xs {
		if !(x > 0) {
			failf(site, "value %d is not positive: %v", i, x)
		}
	}
}

// NonZero asserts every x is a usable divisor: neither zero nor NaN.
//
//numlint:asserts nonzero(xs)
//numlint:ignore testonly called only by the generated debugchecks contract shims
func NonZero(site string, xs ...float64) {
	if !Enabled {
		return
	}
	for i, x := range xs {
		if x == 0 || math.IsNaN(x) {
			failf(site, "value %d is zero or NaN: %v", i, x)
		}
	}
}

// NonNegativeScalar asserts every x is >= 0 (NaN fails).
//
//numlint:asserts nonnegative(xs)
//numlint:ignore testonly called only by the generated debugchecks contract shims
func NonNegativeScalar(site string, xs ...float64) {
	if !Enabled {
		return
	}
	for i, x := range xs {
		if !(x >= 0) {
			failf(site, "value %d is negative or NaN: %v", i, x)
		}
	}
}

// UnitScalar asserts every x lies in [0, 1] within probTol, the same
// drift budget the vector checks allow.
//
//numlint:asserts unitinterval(xs)
func UnitScalar(site string, xs ...float64) {
	if !Enabled {
		return
	}
	for i, x := range xs {
		if !(x >= -probTol && x <= 1+probTol) {
			failf(site, "value %d is outside [0,1]: %v", i, x)
		}
	}
}
