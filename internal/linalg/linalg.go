// Package linalg provides the small dense linear-algebra kernels the
// battery solvers need: LU decomposition with partial pivoting for
// steady-state equations and for the n×n workload blocks of the mean
// lifetime solve, and a complex matrix exponential for the
// transform-domain performability solver.
//
// Workload CTMCs in the paper have at most a handful of states, so these
// routines are written for clarity and numerical robustness rather than
// blocked performance. Large systems (the expanded CTMC Q*) never pass
// through this package whole — they are handled sparsely by
// internal/sparse, or block by block.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape reports inconsistent dimensions.
var ErrShape = errors.New("linalg: dimension mismatch")

// SolveReal solves A·x = b by LU decomposition with partial pivoting.
// A and b are left unmodified.
func SolveReal(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("solve %dx? with |b|=%d: %w", n, len(b), ErrShape)
	}
	lu := make([]float64, 0, n*n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("row %d has %d columns, want %d: %w", i, len(a[i]), n, ErrShape)
		}
		lu = append(lu, a[i]...)
	}
	piv := make([]int, n)
	if err := FactorLU(lu, piv); err != nil {
		return nil, err
	}
	x := append([]float64(nil), b...)
	SolveLU(lu, piv, x)
	return x, nil
}

// FactorLU factors the row-major n×n matrix lu, n = len(piv), in place
// into P·A = L·U with partial pivoting: U on and above the diagonal,
// L's unit-diagonal multipliers below it, and piv[k] the row swapped
// with row k at step k. It allocates nothing. An exactly zero pivot
// column fails with ErrSingular.
func FactorLU(lu []float64, piv []int) error {
	n := len(piv)
	if len(lu) != n*n {
		return fmt.Errorf("factor %d entries as %dx%d: %w", len(lu), n, n, ErrShape)
	}
	for col := 0; col < n; col++ {
		pivot, maxAbs := col, math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(lu[r*n+col]); abs > maxAbs {
				pivot, maxAbs = r, abs
			}
		}
		if maxAbs == 0 {
			return fmt.Errorf("pivot column %d: %w", col, ErrSingular)
		}
		piv[col] = pivot
		for c := 0; c < n; c++ {
			lu[col*n+c], lu[pivot*n+c] = lu[pivot*n+c], lu[col*n+c]
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] * inv
			lu[r*n+col] = f
			if f == 0 {
				continue
			}
			for c := col + 1; c < n; c++ {
				lu[r*n+c] -= f * lu[col*n+c]
			}
		}
	}
	return nil
}

// SolveLU solves A·x = b in place, given FactorLU's factors of A: x
// holds b on entry and the solution on return. Like FactorLU it
// allocates nothing.
func SolveLU(lu []float64, piv []int, x []float64) {
	n := len(piv)
	for col, p := range piv {
		x[col], x[p] = x[p], x[col]
	}
	for col := 0; col < n; col++ {
		for r := col + 1; r < n; r++ {
			if f := lu[r*n+col]; f != 0 {
				x[r] -= f * x[col]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := x[r]
		for c := r + 1; c < n; c++ {
			sum -= lu[r*n+c] * x[c]
		}
		x[r] = sum / lu[r*n+r]
	}
}

// MatC is a dense square complex matrix stored row-major.
type MatC struct {
	n    int
	data []complex128
}

// NewMatC returns the zero n×n complex matrix.
func NewMatC(n int) *MatC {
	return &MatC{n: n, data: make([]complex128, n*n)}
}

// IdentityC returns the n×n identity.
func IdentityC(n int) *MatC {
	m := NewMatC(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the (r, c) entry.
func (m *MatC) At(r, c int) complex128 { return m.data[r*m.n+c] }

// Set assigns the (r, c) entry.
func (m *MatC) Set(r, c int, v complex128) { m.data[r*m.n+c] = v }

// Clone returns a deep copy.
func (m *MatC) Clone() *MatC {
	c := NewMatC(m.n)
	copy(c.data, m.data)
	return c
}

// Scale multiplies every entry by s, in place, and returns m.
func (m *MatC) Scale(s complex128) *MatC {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddInPlace adds o entrywise, in place, and returns m.
func (m *MatC) AddInPlace(o *MatC) *MatC {
	for i := range m.data {
		m.data[i] += o.data[i]
	}
	return m
}

// Mul returns m·o.
func (m *MatC) Mul(o *MatC) *MatC {
	n := m.n
	out := NewMatC(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.data[i*n+k]
			if a == 0 {
				continue
			}
			row := o.data[k*n:]
			outRow := out.data[i*n:]
			for j := 0; j < n; j++ {
				outRow[j] += a * row[j]
			}
		}
	}
	return out
}

// MulVecLeft returns x·m for a row vector x.
func (m *MatC) MulVecLeft(x []complex128) ([]complex128, error) {
	if len(x) != m.n {
		return nil, fmt.Errorf("vector length %d for %dx%d: %w", len(x), m.n, m.n, ErrShape)
	}
	out := make([]complex128, m.n)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.n:]
		for j := 0; j < m.n; j++ {
			out[j] += xi * row[j]
		}
	}
	return out, nil
}

// normInf returns the maximum absolute row sum.
func (m *MatC) normInf() float64 {
	maxSum := 0.0
	for i := 0; i < m.n; i++ {
		sum := 0.0
		for j := 0; j < m.n; j++ {
			sum += cmplx.Abs(m.data[i*m.n+j])
		}
		if sum > maxSum {
			maxSum = sum
		}
	}
	return maxSum
}

// Exp returns e^m via scaling and squaring with a Taylor series on the
// scaled matrix. The matrix is scaled by 2^-s until its infinity norm is
// below 1/2; the series then converges to machine precision in ~20
// terms, and the result is squared s times.
func (m *MatC) Exp() *MatC {
	norm := m.normInf()
	s := 0
	for scaled := norm; scaled > 0.5; scaled /= 2 {
		s++
	}
	a := m.Clone().Scale(complex(math.Exp2(-float64(s)), 0))

	// Taylor: e^A = Σ A^k / k!.
	result := IdentityC(m.n)
	term := IdentityC(m.n)
	for k := 1; k <= 24; k++ {
		term = term.Mul(a).Scale(complex(1/float64(k), 0))
		result.AddInPlace(term)
		if term.normInf() < 1e-18*(1+result.normInf()) {
			break
		}
	}
	for i := 0; i < s; i++ {
		result = result.Mul(result)
	}
	return result
}
