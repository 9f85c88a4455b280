// Code generated by numlint -gen-checks; DO NOT EDIT.

//go:build debugchecks

package ctmc

import "batlife/internal/check"

// numlintContract_Chain_PointDistribution_ensures re-checks the ensures contract of Chain.PointDistribution at runtime.
//
//numlint:asserts normalized(ret0)
func numlintContract_Chain_PointDistribution_ensures(ret0 []float64) {
	if ret0 != nil {
		check.Probabilities("ctmc.Chain.PointDistribution ensures normalized(ret0)", ret0)
	}
}

// numlintContract_uniformizedBands re-checks the requires contract of uniformizedBands at runtime.
//
//numlint:asserts positive(q)
func numlintContract_uniformizedBands(q float64) {
	check.Positive("ctmc.uniformizedBands requires positive(q)", q)
}

// numlintContract_uniformizedTransposed re-checks the requires contract of uniformizedTransposed at runtime.
//
//numlint:asserts positive(q)
func numlintContract_uniformizedTransposed(q float64) {
	check.Positive("ctmc.uniformizedTransposed requires positive(q)", q)
}
