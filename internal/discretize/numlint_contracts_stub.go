// Code generated by numlint -gen-checks; DO NOT EDIT.

//go:build !debugchecks

package discretize

// Contract shims, disabled flavour: without the debugchecks tag the
// bodies are empty and the compiler erases the calls; the
// //numlint:asserts directives still feed the static lattices.

// numlintContract_EnergyDepletionCDF_ensures re-checks the ensures contract of EnergyDepletionCDF at runtime.
//
//numlint:asserts unitinterval(ret0)
func numlintContract_EnergyDepletionCDF_ensures(ret0 []float64) {
}
