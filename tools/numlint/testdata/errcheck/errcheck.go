// Package errcheck is a numlint test fixture; see numlint_test.go for
// the expected findings.
package errcheck

import (
	"fmt"

	"batlife/internal/sparse"
)

// Drop exercises the errchecklite analyzer against module-local callees.
func Drop(m *sparse.CSR, dst, x []float64) {
	m.MulVec(dst, x)     // want finding (line 13)
	_ = m.MulVec(dst, x) // want finding (line 14)
	go m.MulVec(dst, x)  // want finding (line 15)
	b := sparse.NewBuilder(1, 1, 0)
	v, _ := b.Freeze() // want finding (line 17)
	_ = v
	if err := m.MulVec(dst, x); err != nil { // handled: no finding
		fmt.Println(err)
	}
	fmt.Println("stdlib errors are out of scope") // no finding
	//numlint:ignore errchecklite fixture demonstrates suppression
	m.MulVec(x, dst) // suppressed
}
