// Package testonly is a numlint test fixture: it calls the internal
// package's non-test API, so the testonly analyzer flags only the rest.
package testonly

import (
	"fmt"

	"batlife/tools/numlint/testdata/testonly/internal/lib"
)

// Run uses lib.Used, and lib.T's String only through fmt.Stringer.
func Run() string { return fmt.Sprint(lib.T{}, lib.Used()) }
