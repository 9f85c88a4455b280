// Package ctmctest holds the full-sweep uniformisation loop that the
// windowed engine of package ctmc is tested against. Reference sweeps all
// of Pᵀ every step and drops nothing, with the same uniformisation
// constant, Fox–Glynn weights, fold order and steady-state check as
// ctmc.Uniformized.Transient. When a windowed solve reports zero
// DroppedMass its answers must equal Reference's bit for bit; otherwise
// they may fall below them by at most DroppedMass. Only tests import
// this package.
package ctmctest

import (
	"fmt"
	"math"

	"batlife/internal/foxglynn"
	"batlife/internal/sparse"
)

// Result is the output of a Reference solve.
type Result struct {
	// Distributions[k] is π(times[k]); nil for functional solves.
	Distributions [][]float64
	// Values[k] is w·π(times[k]); nil for distribution solves.
	Values []float64
	// Iterations counts the products performed.
	Iterations int
}

// Reference computes the transient distribution (w nil) or functional
// of the generator at each ascending time point, under the default
// uniformisation slack (1.02). steadyState enables the same early stop
// as ctmc's default.
//
//numlint:ignore testonly full-sweep reference of the windowed-solve tests
func Reference(gen *sparse.CSR, alpha, w, times []float64, eps float64, steadyState bool) (*Result, error) {
	n := gen.Rows()
	res := &Result{}
	if w == nil {
		res.Distributions = make([][]float64, len(times))
		for k := range times {
			res.Distributions[k] = make([]float64, n)
		}
	} else {
		res.Values = make([]float64, len(times))
	}
	q := gen.MaxAbsDiagonal() * 1.02
	if q == 0 {
		return nil, fmt.Errorf("ctmctest: chain without transitions")
	}
	b := sparse.NewBuilder(n, n, gen.NNZ()+n)
	for r := 0; r < n; r++ {
		diagSeen := false
		gen.Row(r, func(c int, v float64) {
			if c == r {
				b.Add(r, r, 1+v/q)
				diagSeen = true
				return
			}
			b.Add(c, r, v/q)
		})
		if !diagSeen {
			b.Add(r, r, 1)
		}
	}
	pt, err := b.Freeze()
	if err != nil {
		return nil, err
	}
	weights := make([]*foxglynn.Weights, len(times))
	maxRight := 0
	for k, t := range times {
		if weights[k], err = foxglynn.Compute(q*t, eps); err != nil {
			return nil, err
		}
		maxRight = max(maxRight, weights[k].Right)
	}

	fold := func(it int, v []float64, tail bool) {
		var s float64
		computed := false
		for k, fw := range weights {
			p := fw.At(it)
			if tail {
				p = 0
				for m := max(it, fw.Left); m <= fw.Right; m++ {
					p += fw.At(m)
				}
			}
			if p <= 0 {
				continue
			}
			if w == nil {
				for i, vi := range v {
					res.Distributions[k][i] += p * vi
				}
				continue
			}
			if !computed {
				for i, vi := range v {
					s += w[i] * vi
				}
				computed = true
			}
			res.Values[k] += p * s
		}
	}

	v := append([]float64(nil), alpha...)
	next := make([]float64, n)
	fold(0, v, false)
	for it := 0; it < maxRight; it++ {
		if err := pt.MulVec(next, v); err != nil {
			return nil, err
		}
		res.Iterations++
		if steadyState && it%16 == 0 {
			maxDelta := 0.0
			for i := range v {
				maxDelta = math.Max(maxDelta, math.Abs(next[i]-v[i]))
			}
			if maxDelta <= eps {
				fold(it+1, next, true)
				return res, nil
			}
		}
		fold(it+1, next, false)
		v, next = next, v
	}
	return res, nil
}
