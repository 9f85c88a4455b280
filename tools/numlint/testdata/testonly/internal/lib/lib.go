// Package lib is a numlint test fixture; see numlint_test.go for the
// expected findings.
package lib

import "fmt"

// Used has a non-test caller in the parent package: no finding.
func Used() int { return 1 }

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 2 } // want finding (line 11)

// Recursive calls only itself.
func Recursive(n int) int { // want finding (line 14)
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T is used by the parent package.
type T struct{ n int }

// String satisfies fmt.Stringer, so calls through the interface count:
// no finding.
func (t T) String() string { return fmt.Sprint(t.n) }

// Unused has no caller at all.
func (t T) Unused() int { return t.n } // want finding (line 29)

// hidden is unexported: no finding.
func hidden() int { return Used() }

type private struct{}

// Exported methods of unexported types are not API: no finding.
func (private) Method() int { return hidden() }

var _ = private{}.Method
