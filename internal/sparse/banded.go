package sparse

import (
	"fmt"
	"math"
	"slices"

	"batlife/internal/check"
)

// MaxBands is the most diagonals a Banded holds. An operator with more
// distinct index offsets stays in CSR form.
const MaxBands = 8

// bandTile is the row block the banded kernel finishes, every pass and
// the fold, before it moves on: 512 rows keep the block of dst in L1
// between passes.
const bandTile = 512

// Banded is an immutable square matrix stored as diagonal bands. Band k
// holds entry (r, r+offs[k]) at vals[k][r], with a zero wherever the
// band has no entry, including every row where r+offs[k] falls outside
// the matrix. The offsets ascend, so a row's bands run in ascending
// column order.
//
// The expanded chains of the paper give every state the same few
// transition kinds, so their uniformised operators have at most a
// handful of distinct offsets. Stored as bands, a row's product reads a
// fixed number of values at fixed distances instead of a variable-length
// list of gathered columns, and the kernel unrolls over the bands.
type Banded struct {
	n    int
	offs []int
	vals [][]float64
	// lo and hi delimit the interior rows, those where every band's
	// column lies in [0, n); the rows outside take the checked edge path.
	lo, hi int
}

// NewBanded returns the n×n matrix with the given bands, taking
// ownership of offsets and vals: vals[k][r] is entry (r, r+offsets[k]).
// offsets must ascend strictly, lie in (−n, n) and number 1 to
// MaxBands, and each band must have n entries. Under the debugchecks
// tag the values are also checked (see Validate).
func NewBanded(n int, offsets []int, vals [][]float64) (*Banded, error) {
	if len(offsets) == 0 || len(offsets) > MaxBands || len(vals) != len(offsets) {
		return nil, fmt.Errorf("sparse: %d offsets and %d bands (want 1..%d of each): %w",
			len(offsets), len(vals), MaxBands, ErrShape)
	}
	for k, o := range offsets {
		if len(vals[k]) != n || o <= -n || o >= n || (k > 0 && o <= offsets[k-1]) {
			return nil, fmt.Errorf("sparse: band %d (offset %d, %d values) in a %dx%d matrix with offsets %v: %w",
				k, o, len(vals[k]), n, n, offsets, ErrShape)
		}
	}
	b := &Banded{
		n:    n,
		offs: offsets,
		vals: vals,
		lo:   max(0, -offsets[0]),
		hi:   min(n, n-offsets[len(offsets)-1]),
	}
	b.hi = max(b.hi, b.lo) // no interior: the two edge ranges must not overlap
	check.CSRWellFormed("sparse.NewBanded", b)
	return b, nil
}

// Validate performs the structural self-check of the band layout:
// strictly ascending in-range offsets, one n-entry band per offset,
// finite values, and a zero wherever a band's column leaves the matrix.
// NewBanded checks the shape; Validate backs the debugchecks invariant
// layer (internal/check) and is cheap enough to call directly in tests.
func (b *Banded) Validate() error {
	if len(b.offs) == 0 || len(b.offs) > MaxBands || len(b.vals) != len(b.offs) {
		return fmt.Errorf("sparse: %d offsets and %d bands", len(b.offs), len(b.vals))
	}
	for k, o := range b.offs {
		if k > 0 && o <= b.offs[k-1] {
			return fmt.Errorf("sparse: band offsets %v not strictly ascending", b.offs)
		}
		if o <= -b.n || o >= b.n || len(b.vals[k]) != b.n {
			return fmt.Errorf("sparse: band %d (offset %d, %d values) in a %dx%d matrix", k, o, len(b.vals[k]), b.n, b.n)
		}
		for r, v := range b.vals[k] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sparse: entry (%d,%d) is not finite: %v", r, r+o, v)
			}
			if c := r + o; (c < 0 || c >= b.n) && v != 0 {
				return fmt.Errorf("sparse: band %d holds %v at row %d, column %d outside the matrix", k, v, r, c)
			}
		}
	}
	return nil
}

// Rows reports the number of rows.
func (b *Banded) Rows() int { return b.n }

// Cols reports the number of columns.
func (b *Banded) Cols() int { return b.n }

// Bands reports the number of stored bands.
func (b *Banded) Bands() int { return len(b.offs) }

// Offsets returns the ascending band offsets, column minus row.
func (b *Banded) Offsets() []int { return slices.Clone(b.offs) }

// weight is the partition weight of rows [lo, hi): every row reads
// every band, so the weight is uniform.
func (b *Banded) weight(lo, hi int32) int64 {
	return int64(hi-lo) * int64(len(b.offs)+1)
}

// mulRows computes dst[r] = Σ_k vals[k][r]·x[r+offs[k]] over rows
// [lo, hi).
//
//numlint:hotpath
func (b *Banded) mulRows(dst, x []float64, lo, hi int) {
	b.mulAccumRows(dst, x, nil, 0, lo, hi)
}

// mulAccumRows is the banded row-range kernel: dst[r] = Σ_k
// vals[k][r]·x[r+offs[k]] and, when w != 0, acc[r] += w·dst[r].
//
// Each row sums its bands from 0.0 in ascending column order, the
// order CSR.mulRows visits the row's nonzeros. A padded zero adds
// 0·x = ±0, which leaves any sum other than −0 unchanged, and a sum that
// starts at +0 never becomes −0 (only −0 + −0 is −0). So for finite x
// every row is bit-identical to the CSR product of the same entries,
// and the fold, one element-wise multiply-add after the row is done,
// keeps the CSR kernel's per-element order. A w of 0 folds nothing, as
// in CSR.mulAccumRows.
//
//numlint:hotpath
func (b *Banded) mulAccumRows(dst, x, acc []float64, w float64, lo, hi int) {
	if w == 0 {
		acc = nil
	}
	b.edgeRows(dst, x, acc, w, lo, min(hi, b.lo))
	for t, end := max(lo, b.lo), min(hi, b.hi); t < end; t += bandTile {
		e := min(t+bandTile, end)
		b.interiorRows(dst, x, t, e)
		if acc != nil {
			a, d := acc[t:e], dst[t:e]
			for i := range d {
				a[i] += w * d[i]
			}
		}
	}
	b.edgeRows(dst, x, acc, w, max(lo, b.hi), hi)
}

// edgeRows is the checked path for rows where some band's column falls
// outside the matrix: those bands are skipped (they hold zeros there).
//
//numlint:hotpath
func (b *Banded) edgeRows(dst, x, acc []float64, w float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := 0.0
		for k, o := range b.offs {
			if c := r + o; c >= 0 && c < b.n {
				s += b.vals[k][r] * x[c]
			}
		}
		dst[r] = s
		if acc != nil {
			acc[r] += w * s
		}
	}
}

// Kernel names the row kernel the banded products run: "bands-avx2"
// where the vectorised interior kernel is built and the CPU has AVX2,
// "bands" otherwise.
func (b *Banded) Kernel() string {
	if useAVX2 {
		return "bands-avx2"
	}
	return "bands"
}

// interiorRows computes rows [lo, hi), all interior: on the AVX2 kernel
// where it runs (banded_amd64.go), else on the Go passes. The two are
// bit-identical.
//
//numlint:hotpath
func (b *Banded) interiorRows(dst, x []float64, lo, hi int) {
	if useAVX2 {
		b.interiorRowsAVX2(dst, x, lo, hi)
		return
	}
	b.interiorRowsGo(dst, x, lo, hi)
}

// interiorRowsGo computes rows [lo, hi), all interior, in passes of two
// to four unrolled bands (one for a single-band matrix). The first pass
// sets dst, each later pass adds its bands on top, so a row still sums
// its bands in ascending order.
//
//numlint:hotpath
func (b *Banded) interiorRowsGo(dst, x []float64, lo, hi int) {
	d := dst[lo:hi]
	var v, xs [MaxBands][]float64
	for k, o := range b.offs {
		v[k], xs[k] = b.vals[k][lo:hi], x[lo+o:hi+o]
	}
	switch len(b.offs) {
	case 1:
		bandSet1(d, v[0], xs[0])
	case 2:
		bandSet2(d, v[0], xs[0], v[1], xs[1])
	case 3:
		bandSet3(d, v[0], xs[0], v[1], xs[1], v[2], xs[2])
	case 4:
		bandSet4(d, v[0], xs[0], v[1], xs[1], v[2], xs[2], v[3], xs[3])
	case 5:
		bandSet3(d, v[0], xs[0], v[1], xs[1], v[2], xs[2])
		bandAdd2(d, v[3], xs[3], v[4], xs[4])
	case 6:
		bandSet3(d, v[0], xs[0], v[1], xs[1], v[2], xs[2])
		bandAdd3(d, v[3], xs[3], v[4], xs[4], v[5], xs[5])
	case 7:
		bandSet4(d, v[0], xs[0], v[1], xs[1], v[2], xs[2], v[3], xs[3])
		bandAdd3(d, v[4], xs[4], v[5], xs[5], v[6], xs[6])
	case 8:
		bandSet4(d, v[0], xs[0], v[1], xs[1], v[2], xs[2], v[3], xs[3])
		bandAdd4(d, v[4], xs[4], v[5], xs[5], v[6], xs[6], v[7], xs[7])
	}
}

// The pass kernels take each band's values and the matching window of
// x, all as long as d, and reslice them to len(d) so the compiler drops
// the bounds checks. bandSetK starts every row at 0.0; bandAddK starts
// at d's current value.

//numlint:hotpath
func bandSet1(d, v0, x0 []float64) {
	v0, x0 = v0[:len(d)], x0[:len(d)]
	for i := range d {
		s := 0.0
		s += v0[i] * x0[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandSet2(d, v0, x0, v1, x1 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	for i := range d {
		s := 0.0
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandSet3(d, v0, x0, v1, x1, v2, x2 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	v2, x2 = v2[:len(d)], x2[:len(d)]
	for i := range d {
		s := 0.0
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		s += v2[i] * x2[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandSet4(d, v0, x0, v1, x1, v2, x2, v3, x3 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	v2, x2, v3, x3 = v2[:len(d)], x2[:len(d)], v3[:len(d)], x3[:len(d)]
	for i := range d {
		s := 0.0
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		s += v2[i] * x2[i]
		s += v3[i] * x3[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandAdd2(d, v0, x0, v1, x1 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	for i := range d {
		s := d[i]
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandAdd3(d, v0, x0, v1, x1, v2, x2 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	v2, x2 = v2[:len(d)], x2[:len(d)]
	for i := range d {
		s := d[i]
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		s += v2[i] * x2[i]
		d[i] = s
	}
}

//numlint:hotpath
func bandAdd4(d, v0, x0, v1, x1, v2, x2, v3, x3 []float64) {
	v0, x0, v1, x1 = v0[:len(d)], x0[:len(d)], v1[:len(d)], x1[:len(d)]
	v2, x2, v3, x3 = v2[:len(d)], x2[:len(d)], v3[:len(d)], x3[:len(d)]
	for i := range d {
		s := d[i]
		s += v0[i] * x0[i]
		s += v1[i] * x1[i]
		s += v2[i] * x2[i]
		s += v3[i] * x3[i]
		d[i] = s
	}
}
