// Code generated by numlint -gen-checks; DO NOT EDIT.

//go:build debugchecks

package discretize

import "batlife/internal/check"

// numlintContract_EnergyDepletionCDF_ensures re-checks the ensures contract of EnergyDepletionCDF at runtime.
//
//numlint:asserts unitinterval(ret0)
func numlintContract_EnergyDepletionCDF_ensures(ret0 []float64) {
	if ret0 != nil {
		check.UnitInterval("discretize.EnergyDepletionCDF ensures unitinterval(ret0)", ret0)
	}
}
