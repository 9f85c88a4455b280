package ctmc

import "batlife/internal/sparse"

// NewUniformizedCSR is NewUniformized with Pᵀ kept in CSR form whatever
// its offset count, so tests can hold the banded operator against the
// CSR one.
func NewUniformizedCSR(gen *sparse.CSR, opts TransientOptions) (*Uniformized, error) {
	u, err := NewUniformized(gen, opts)
	if err != nil || u.q == 0 {
		return u, err
	}
	pt, err := uniformizedTransposed(gen, u.q)
	if err != nil {
		return nil, err
	}
	u.pt, u.bands, u.periodic, u.shifts = pt, 0, 0, shiftRanges(pt)
	return u, nil
}

// Bands reports Pᵀ's band count, 0 on the CSR layout.
func (u *Uniformized) Bands() int { return u.bands }

// Banded returns Pᵀ in band form, nil on the CSR layout.
func (u *Uniformized) Banded() *sparse.Banded {
	b, _ := u.pt.(*sparse.Banded)
	return b
}
