// Package multireward generalises the Markovian approximation of
// internal/core to an arbitrary number of accumulated rewards. The
// paper's Section 5 presents the construction for the two battery wells
// but notes that "the approach applies for three or more reward types
// equally well" — this package is that remark made concrete.
//
// A model is a workload CTMC plus a D-dimensional reward grid. Each
// grid cell holds one copy of the workload states; reward dynamics are
// expressed as Moves — transitions that shift the cell by an integer
// vector (the two-well battery's consumption is shift (−1, 0), its
// transfer is (+1, −1); a joint energy-delivered counter adds a third
// component). Absorbing cells (e.g. battery empty) are cut out of the
// generator exactly as in core. The lifetime-style measures are
// transient functionals of the expanded CTMC, computed by the shared
// uniformisation engine.
package multireward

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/ctmc"
	"batlife/internal/sparse"
)

// ErrBadSpec reports an invalid model specification.
var ErrBadSpec = errors.New("multireward: invalid specification")

// ErrBadMove reports a reward move that leaves the grid.
var ErrBadMove = errors.New("multireward: move leaves the grid")

// Move is one reward-driven transition: with the given rate, every
// reward dimension d shifts by Shift[d] grid levels.
type Move struct {
	// Rate is the transition rate (already divided by the grid step, as
	// in the paper's I/Δ).
	Rate float64
	// Shift is the per-dimension level change; len(Shift) must equal
	// the grid dimension.
	Shift []int
}

// Spec describes a multi-reward Markovian approximation.
type Spec struct {
	// Chain is the workload CTMC.
	Chain *ctmc.Chain
	// Levels holds the number of grid levels per reward dimension.
	Levels []int
	// Initial is the initial workload-state distribution.
	Initial []float64
	// InitialCell is the starting grid cell.
	InitialCell []int
	// Moves returns the reward moves available to the given workload
	// state in the given cell. Moves whose target leaves the grid are
	// an error — gate them in the callback, mirroring the explicit
	// boundary handling of Section 5.2.
	Moves func(state int, cell []int) []Move
	// Absorbing reports whether (state, cell) is absorbing; absorbing
	// cells keep their probability mass (no outgoing transitions).
	// May be nil (no absorbing region).
	Absorbing func(state int, cell []int) bool
	// RateScale optionally modulates a workload transition rate at a
	// grid cell (the reward-inhomogeneous generator Q(y) of Section
	// 4.1); nil leaves rates unchanged.
	RateScale func(from, to int, cell []int, base float64) float64
}

// validate checks the static parts of the specification.
func (s Spec) validate() error {
	if s.Chain == nil {
		return fmt.Errorf("%w: nil chain", ErrBadSpec)
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("%w: no reward dimensions", ErrBadSpec)
	}
	total := int64(1) // int64 so the bound also compiles where int is 32 bits
	for d, l := range s.Levels {
		if l < 1 {
			return fmt.Errorf("%w: dimension %d has %d levels", ErrBadSpec, d, l)
		}
		if total > (1<<31)/int64(l) {
			return fmt.Errorf("%w: grid exceeds 2^31 cells", ErrBadSpec)
		}
		total *= int64(l)
	}
	n := s.Chain.NumStates()
	if len(s.Initial) != n {
		return fmt.Errorf("%w: initial distribution has %d entries for %d states",
			ErrBadSpec, len(s.Initial), n)
	}
	sum := 0.0
	for _, a := range s.Initial {
		if a < 0 {
			return fmt.Errorf("%w: negative initial probability", ErrBadSpec)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: initial distribution sums to %v", ErrBadSpec, sum)
	}
	if len(s.InitialCell) != len(s.Levels) {
		return fmt.Errorf("%w: initial cell has %d coordinates for %d dimensions",
			ErrBadSpec, len(s.InitialCell), len(s.Levels))
	}
	for d, c := range s.InitialCell {
		if c < 0 || c >= s.Levels[d] {
			return fmt.Errorf("%w: initial cell %v outside the grid", ErrBadSpec, s.InitialCell)
		}
	}
	if s.Moves == nil {
		return fmt.Errorf("%w: nil Moves callback", ErrBadSpec)
	}
	return nil
}

// Grid is the expanded CTMC over states × cells.
type Grid struct {
	spec    Spec
	strides []int // stride per dimension, in cells
	cells   int
	gen     *sparse.CSR
	alpha   []float64
}

// Build assembles the expanded generator.
func Build(spec Spec) (*Grid, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	g := &Grid{spec: spec}
	g.strides = make([]int, len(spec.Levels))
	stride := 1
	for d := len(spec.Levels) - 1; d >= 0; d-- {
		g.strides[d] = stride
		stride *= spec.Levels[d]
	}
	g.cells = stride

	n := spec.Chain.NumStates()
	total := n * g.cells
	g.alpha = make([]float64, total)
	initCell := g.cellIndex(spec.InitialCell)
	for i := 0; i < n; i++ {
		g.alpha[g.index(i, initCell)] = spec.Initial[i]
	}

	b := sparse.NewBuilder(total, total, total*4)
	cell := make([]int, len(spec.Levels))
	for ci := 0; ci < g.cells; ci++ {
		g.cellCoords(ci, cell)
		for i := 0; i < n; i++ {
			if spec.Absorbing != nil && spec.Absorbing(i, cell) {
				continue
			}
			from := g.index(i, ci)
			diag := 0.0
			// Workload transitions within the cell.
			spec.Chain.Generator().Row(i, func(col int, v float64) {
				if col == i || v <= 0 {
					return
				}
				rate := v
				if spec.RateScale != nil {
					rate = spec.RateScale(i, col, cell, v)
					if rate < 0 || math.IsNaN(rate) {
						rate = 0
					}
				}
				if rate == 0 {
					return
				}
				b.Add(from, g.index(col, ci), rate)
				diag -= rate
			})
			// Reward moves.
			for _, mv := range spec.Moves(i, cell) {
				if mv.Rate <= 0 || math.IsNaN(mv.Rate) || math.IsInf(mv.Rate, 0) {
					return nil, fmt.Errorf("%w: rate %v in state %s cell %v",
						ErrBadSpec, mv.Rate, spec.Chain.Name(i), cell)
				}
				if len(mv.Shift) != len(spec.Levels) {
					return nil, fmt.Errorf("%w: shift %v has %d coordinates in a %d-dimensional grid",
						ErrBadMove, mv.Shift, len(mv.Shift), len(spec.Levels))
				}
				target := ci
				for d, sh := range mv.Shift {
					nc := cell[d] + sh
					if nc < 0 || nc >= spec.Levels[d] {
						return nil, fmt.Errorf("%w: state %s cell %v shift %v",
							ErrBadMove, spec.Chain.Name(i), cell, mv.Shift)
					}
					target += sh * g.strides[d]
				}
				b.Add(from, g.index(i, target), mv.Rate)
				diag -= mv.Rate
			}
			if diag != 0 {
				b.Add(from, from, diag)
			}
		}
	}
	gen, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("multireward: assemble: %w", err)
	}
	g.gen = gen
	return g, nil
}

// index maps (state, cellIndex) to a flat index.
func (g *Grid) index(state, cellIdx int) int {
	return cellIdx*g.spec.Chain.NumStates() + state
}

// cellIndex flattens cell coordinates.
func (g *Grid) cellIndex(cell []int) int {
	idx := 0
	for d, c := range cell {
		idx += c * g.strides[d]
	}
	return idx
}

// cellCoords expands a flat cell index into dst.
func (g *Grid) cellCoords(idx int, dst []int) {
	for d := range dst {
		dst[d] = idx / g.strides[d]
		idx %= g.strides[d]
	}
}

// NumStates reports the expanded state count.
func (g *Grid) NumStates() int { return g.spec.Chain.NumStates() * g.cells }

// Generator exposes the expanded generator (e.g. for CSRL until queries
// over the grid). Callers must not modify it.
func (g *Grid) Generator() *sparse.CSR { return g.gen }

// InitialVector returns a copy of the expanded initial distribution.
func (g *Grid) InitialVector() []float64 {
	return append([]float64(nil), g.alpha...)
}

// Indicator lifts a (state, cell) predicate to a flat-index predicate
// over the expanded chain.
func (g *Grid) Indicator(pred func(state int, cell []int) bool) func(int) bool {
	n := g.spec.Chain.NumStates()
	return func(idx int) bool {
		cell := make([]int, len(g.spec.Levels))
		g.cellCoords(idx/n, cell)
		return pred(idx%n, cell)
	}
}

// NNZ reports the generator nonzeros.
func (g *Grid) NNZ() int { return g.gen.NNZ() }

// Measure computes Pr{(X(t), cell(t)) ∈ A} at each time, where A is
// given by the indicator.
func (g *Grid) Measure(indicator func(state int, cell []int) bool, times []float64, opts ctmc.TransientOptions) ([]float64, error) {
	if indicator == nil {
		return nil, fmt.Errorf("%w: nil indicator", ErrBadSpec)
	}
	n := g.spec.Chain.NumStates()
	w := make([]float64, g.NumStates())
	cell := make([]int, len(g.spec.Levels))
	for ci := 0; ci < g.cells; ci++ {
		g.cellCoords(ci, cell)
		for i := 0; i < n; i++ {
			if indicator(i, cell) {
				w[g.index(i, ci)] = 1
			}
		}
	}
	res, err := ctmc.TransientFunctional(g.gen, g.alpha, w, times, opts)
	if err != nil {
		return nil, fmt.Errorf("multireward: measure: %w", err)
	}
	for k, p := range res.Values {
		res.Values[k] = math.Min(1, math.Max(0, p))
	}
	return res.Values, nil
}

// CellMarginal returns the marginal distribution of one reward
// dimension at time t.
func (g *Grid) CellMarginal(dim int, t float64, opts ctmc.TransientOptions) ([]float64, error) {
	if dim < 0 || dim >= len(g.spec.Levels) {
		return nil, fmt.Errorf("%w: dimension %d of %d", ErrBadSpec, dim, len(g.spec.Levels))
	}
	res, err := ctmc.TransientDistributions(g.gen, g.alpha, []float64{t}, opts)
	if err != nil {
		return nil, fmt.Errorf("multireward: marginal: %w", err)
	}
	out := make([]float64, g.spec.Levels[dim])
	n := g.spec.Chain.NumStates()
	cell := make([]int, len(g.spec.Levels))
	for ci := 0; ci < g.cells; ci++ {
		g.cellCoords(ci, cell)
		for i := 0; i < n; i++ {
			out[cell[dim]] += res.Distributions[0][g.index(i, ci)]
		}
	}
	return out, nil
}
