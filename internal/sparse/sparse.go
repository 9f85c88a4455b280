// Package sparse implements the sparse-matrix substrate for the expanded
// CTMCs produced by the Markovian approximation algorithm of the paper.
//
// The expanded generator Q* of Section 5 has N·n1·n2 states (up to a few
// million at the paper's finest step size Δ=5) with at most a handful of
// nonzeros per row, so a compressed sparse row (CSR) representation with
// 32-bit column indices is used. Matrices are assembled through a
// coordinate (COO) Builder and then frozen into an immutable CSR matrix.
// A square operator with at most MaxBands distinct index offsets, such
// as the uniformised Q*, can instead be stored as diagonal bands
// (Banded), whose row-range products are bit-identical to the CSR ones
// and cheaper.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"batlife/internal/check"
)

// ErrShape reports a dimension mismatch between a matrix and a vector or
// between two matrices.
var ErrShape = errors.New("sparse: dimension mismatch")

// Builder accumulates coordinate-format entries for a rows×cols matrix.
// Duplicate entries for the same (row, col) are summed when the matrix
// is frozen, which is convenient for generator assembly where diagonal
// entries are accumulated as negative row sums.
type Builder struct {
	rows, cols int
	entries    []entry
}

type entry struct {
	row, col int32
	val      float64
}

// NewBuilder returns a Builder for a rows×cols matrix. The sizeHint
// preallocates entry storage; pass 0 if unknown.
func NewBuilder(rows, cols, sizeHint int) *Builder {
	return &Builder{
		rows:    rows,
		cols:    cols,
		entries: make([]entry, 0, sizeHint),
	}
}

// Add records v at position (row, col). Zero values are skipped.
// Out-of-range coordinates are reported at Freeze time, so assembly
// loops stay free of per-entry error handling.
//
//numlint:requires finite(v)
func (b *Builder) Add(row, col int, v float64) {
	numlintContract_Builder_Add(v)
	if v == 0 {
		return
	}
	b.entries = append(b.entries, entry{row: int32(row), col: int32(col), val: v})
}

// Freeze validates the accumulated entries, merges duplicates, and
// returns the immutable CSR matrix.
func (b *Builder) Freeze() (*CSR, error) {
	for _, e := range b.entries {
		if e.row < 0 || int(e.row) >= b.rows || e.col < 0 || int(e.col) >= b.cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d matrix: %w",
				e.row, e.col, b.rows, b.cols, ErrShape)
		}
		if math.IsNaN(e.val) || math.IsInf(e.val, 0) {
			return nil, fmt.Errorf("sparse: entry (%d,%d) is not finite: %v", e.row, e.col, e.val)
		}
	}
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].row != b.entries[j].row {
			return b.entries[i].row < b.entries[j].row
		}
		return b.entries[i].col < b.entries[j].col
	})

	m := &CSR{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
	}
	m.colIdx = make([]int32, 0, len(b.entries))
	m.vals = make([]float64, 0, len(b.entries))

	for i := 0; i < len(b.entries); {
		j := i
		sum := 0.0
		for j < len(b.entries) && b.entries[j].row == b.entries[i].row && b.entries[j].col == b.entries[i].col {
			sum += b.entries[j].val
			j++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, b.entries[i].col)
			m.vals = append(m.vals, sum)
			m.rowPtr[b.entries[i].row+1]++
		}
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	check.CSRWellFormed("sparse.Freeze", m)
	return m, nil
}

// CSR is an immutable sparse matrix in compressed sparse row format.
type CSR struct {
	rows, cols int
	rowPtr     []int32
	colIdx     []int32
	vals       []float64
}

// Validate performs a structural self-check: row-pointer monotonicity
// and bounds, in-range strictly ascending column indices per row, and
// finite stored values. Freeze guarantees all of these, so Validate only
// fails on memory corruption or a hand-built matrix; it backs the
// debugchecks invariant layer (internal/check) and is cheap enough to
// call directly in tests.
func (m *CSR) Validate() error {
	if len(m.rowPtr) != m.rows+1 {
		return fmt.Errorf("sparse: rowPtr has %d entries for %d rows", len(m.rowPtr), m.rows)
	}
	if m.rowPtr[0] != 0 || int(m.rowPtr[m.rows]) != len(m.vals) || len(m.colIdx) != len(m.vals) {
		return fmt.Errorf("sparse: rowPtr spans [%d,%d] over %d values and %d columns",
			m.rowPtr[0], m.rowPtr[m.rows], len(m.vals), len(m.colIdx))
	}
	for r := 0; r < m.rows; r++ {
		if m.rowPtr[r] > m.rowPtr[r+1] {
			return fmt.Errorf("sparse: rowPtr not monotone at row %d", r)
		}
		prev := int32(-1)
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			if c < 0 || int(c) >= m.cols {
				return fmt.Errorf("sparse: row %d references column %d of %d", r, c, m.cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at %d", r, c)
			}
			prev = c
			if v := m.vals[i]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sparse: entry (%d,%d) is not finite: %v", r, c, v)
			}
		}
	}
	return nil
}

// Rows reports the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ reports the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// Kernel names the row kernel the CSR products run: "csr".
func (m *CSR) Kernel() string { return "csr" }

// Row iterates over the nonzeros of one row.
func (m *CSR) Row(row int, fn func(col int, v float64)) {
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		fn(int(m.colIdx[i]), m.vals[i])
	}
}

// MaxAbsDiagonal returns max_i |m[i,i]|, the quantity a uniformisation
// constant must dominate for a generator matrix.
func (m *CSR) MaxAbsDiagonal() float64 {
	maxAbs := 0.0
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if int(m.colIdx[i]) == r {
				if a := math.Abs(m.vals[i]); a > maxAbs {
					maxAbs = a
				}
			}
		}
	}
	return maxAbs
}

// Transpose returns the transposed matrix, so that a left
// multiplication x·M can run as Transpose(M)·x.
//
//numlint:ignore testonly bench/ transposes Q* for its SpMV layer until ROADMAP items 7 and 8 retarget it
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int32, m.cols+1),
		colIdx: make([]int32, len(m.colIdx)),
		vals:   make([]float64, len(m.vals)),
	}
	// Count entries per column of m.
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := make([]int32, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			pos := next[c]
			t.colIdx[pos] = int32(r)
			t.vals[pos] = m.vals[i]
			next[c]++
		}
	}
	return t
}

// MulVec computes dst = m·x (matrix times column vector) on the calling
// goroutine. dst and x must not alias.
//
//numlint:hotpath
func (m *CSR) MulVec(dst, x []float64) error {
	if len(x) != m.cols || len(dst) != m.rows {
		//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
		return fmt.Errorf("sparse: MulVec %dx%d with |x|=%d |dst|=%d: %w",
			m.rows, m.cols, len(x), len(dst), ErrShape)
	}
	m.mulRows(dst, x, 0, m.rows)
	check.FiniteVec("sparse.CSR.MulVec", dst)
	return nil
}

// MulVecMulti computes dsts[k] = m·xs[k] for every right-hand side, one
// sweep of the matrix each (see mulMultiRows). Each dsts[k] is bit-identical to a solo
// MulVec(dsts[k], xs[k]).
//
//numlint:hotpath
func (m *CSR) MulVecMulti(dsts, xs [][]float64) error {
	if len(dsts) != len(xs) {
		//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
		return fmt.Errorf("sparse: MulVecMulti with %d dsts for %d xs: %w", len(dsts), len(xs), ErrShape)
	}
	for k := range xs {
		if len(xs[k]) != m.cols || len(dsts[k]) != m.rows {
			//numlint:ignore hotalloc cold shape-error path, never taken per SpMV iteration
			return fmt.Errorf("sparse: MulVecMulti %dx%d with |xs[%d]|=%d |dsts[%d]|=%d: %w",
				m.rows, m.cols, k, len(xs[k]), k, len(dsts[k]), ErrShape)
		}
	}
	m.mulMultiRows(dsts, xs, 0, m.rows)
	if check.Enabled {
		for k := range dsts {
			check.FiniteVec("sparse.CSR.MulVecMulti", dsts[k])
		}
	}
	return nil
}

// mulRows is the plain SpMV kernel over one row range. The CSR arrays
// are hoisted into locals: indexing receiver fields inside the loop
// defeats bounds-check elimination (the compiler must assume dst writes
// may alias the header of m.vals) and costs ~35% on a 50k-row chain.
func (m *CSR) mulRows(dst, x []float64, lo, hi int) {
	rowPtr, vals, colIdx := m.rowPtr, m.vals, m.colIdx
	for r := lo; r < hi; r++ {
		sum := 0.0
		for i := rowPtr[r]; i < rowPtr[r+1]; i++ {
			sum += vals[i] * x[colIdx[i]]
		}
		dst[r] = sum
	}
}

// segments appends rows [lo, hi) to segs as one segment: a CSR row
// range needs no tiling.
func (m *CSR) segments(segs []segment, lo, hi int) []segment {
	return append(segs, segment{lo: int32(lo), hi: int32(hi)})
}

// mulSegment computes the rows of s: dst[r] = m[r,:]·x.
func (m *CSR) mulSegment(s *segment, dst, x []float64) {
	m.mulRows(dst, x, int(s.lo), int(s.hi))
}

// mulMultiRows is the batched multi-RHS kernel over one row range: one
// full sweep of the range per right-hand side, so each (k, row)
// accumulates in exactly MulVec's entry order (bit-identity). Per-row
// and row-tiled interleavings were measured and rejected: the matrix
// arrays stream sequentially (the prefetcher hides them) while the
// gathers into x do not, and interleaving k right-hand sides multiplies
// the gather working set by k — ~2x slower on a 50k-row skewed chain.
// So the batch saves only the call and shape checks per right-hand
// side, not a traversal.
func (m *CSR) mulMultiRows(dsts, xs [][]float64, lo, hi int) {
	for k := range xs {
		m.mulRows(dsts[k], xs[k], lo, hi)
	}
}
