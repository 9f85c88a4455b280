// Code generated by numlint -gen-checks; DO NOT EDIT.

//go:build !debugchecks

package ctmc

// Contract shims, disabled flavour: without the debugchecks tag the
// bodies are empty and the compiler erases the calls; the
// //numlint:asserts directives still feed the static lattices.

// numlintContract_Chain_PointDistribution_ensures re-checks the ensures contract of Chain.PointDistribution at runtime.
//
//numlint:asserts normalized(ret0)
func numlintContract_Chain_PointDistribution_ensures(ret0 []float64) {
}

// numlintContract_uniformizedBands re-checks the requires contract of uniformizedBands at runtime.
//
//numlint:asserts positive(q)
func numlintContract_uniformizedBands(q float64) {
}

// numlintContract_uniformizedTransposed re-checks the requires contract of uniformizedTransposed at runtime.
//
//numlint:asserts positive(q)
func numlintContract_uniformizedTransposed(q float64) {
}
