package sparse

import (
	"fmt"
	"math"
	"math/bits"
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
// holds entry (r, r+offs[k]) at row r, with a zero wherever the band
// has no entry, including every row where r+offs[k] falls outside the
// matrix. The offsets ascend, so a row's bands run in ascending column
// order.
//
// The expanded chains of the paper give every state the same few
// transition kinds, so their uniformised operators have at most a
// handful of distinct offsets. Stored as bands, a row's product reads a
// fixed number of values at fixed distances instead of a variable-length
// list of gathered columns, and the kernel unrolls over the bands.
//
// The same chains give most bands only a few distinct values, repeating
// with the workload-state count as period over nearly every row. A band
// that repeats bit for bit with a short period stores that period once
// (see band), so the kernel reads it from L1 instead of streaming it.
type Banded struct {
	n     int
	offs  []int
	bands []band
	// lo and hi delimit the interior rows, those where every band's
	// column lies in [0, n).
	lo, hi int
	// cuts are the ascending, distinct rows in (0, n) where a row's
	// layout changes: the region bounds a and c of the periodic bands,
	// and the rows where a band's column enters or leaves the matrix. A
	// segment never straddles one (see segments).
	cuts []int
	// period is the least common multiple of the periodic bands' periods
	// (1 when there are none), and pinv is ⌊(2⁶⁴−1)/period⌋ + 1, which
	// turns r mod period into two multiplies (see phase).
	period int
	pinv   uint64
	// base[k] is &bands[k].data[0], where the AVX2 kernel reads band k.
	base [MaxBands]*float64
}

// maxPeriod is the longest period a band is searched for.
const maxPeriod = 8

// band holds one diagonal's values, all in data. Rows [0, a) are in
// head and rows [c, n) in tail. A periodic band (p > 0) repeats bit for
// bit with period p over rows [a, c), which it reads from table: the period
// unrolled over bandTile + P values by row number, where P is the
// matrix's period, a multiple of p. So table[j] holds the rows r ≡ j
// (mod p), and table[r mod P:] holds rows r onwards for a whole tile:
// one remainder per tile serves every band. A dense band has a = c = n,
// every value in head and no table. NewBanded makes a band periodic
// only when that stores fewer values than n, so a periodic band has
// b.lo ≤ a and c − a > bandTile + P, and c ≤ b.hi: its edge rows are
// all explicit. data is head for a dense band, and head, tail and table
// in that order for a periodic one.
type band struct {
	data, head, tail, table []float64
	a, c, p                 int
}

// NewBanded returns the n×n matrix with the given bands, taking
// ownership of offsets and vals: vals[k][r] is entry (r, r+offsets[k]).
// offsets must ascend strictly, lie in (−n, n) and number 1 to
// MaxBands, and each band must have n entries. A band whose interior
// rows repeat bit for bit with a period of at most maxPeriod over more
// rows than its table holds keeps only that period and its other rows,
// and releases vals[k]. Under the debugchecks tag the values are also
// checked (see Validate).
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
		n:     n,
		offs:  offsets,
		bands: make([]band, len(offsets)),
		lo:    max(0, -offsets[0]),
		hi:    min(n, n-offsets[len(offsets)-1]),
	}
	b.hi = max(b.hi, b.lo) // no interior: the two edge ranges must not overlap
	// A band's table spans bandTile + P rows, P the lcm of the periods,
	// so a band keeps its run only if the run is longer. P is fixed from
	// every run found first, which can only make it larger than the lcm
	// of the runs kept: those stay longer than their tables.
	var runs [MaxBands]struct{ a, c, p int }
	period := 1
	for k, v := range vals {
		r := &runs[k]
		if r.a, r.c, r.p = periodicRun(v, b.lo, b.hi); r.p > 0 {
			period = lcm(period, r.p)
		}
	}
	b.period = 1
	for k := range vals {
		if r := &runs[k]; r.p > 0 && r.c-r.a > bandTile+period {
			b.period = lcm(b.period, r.p)
			b.cuts = append(b.cuts, r.a, r.c)
		} else {
			r.p = 0
		}
	}
	b.pinv = ^uint64(0)/uint64(b.period) + 1
	for k, v := range vals {
		r := runs[k]
		b.bands[k] = newBand(v, r.a, r.c, r.p, b.period)
		b.base[k] = &b.bands[k].data[0]
		vals[k] = nil
	}
	for _, o := range offsets {
		for _, c := range [2]int{-o, n - o} {
			if c > 0 && c < n {
				b.cuts = append(b.cuts, c)
			}
		}
	}
	slices.Sort(b.cuts)
	b.cuts = slices.Compact(b.cuts)
	check.CSRWellFormed("sparse.NewBanded", b)
	return b, nil
}

// lcm returns the least common multiple of two positive integers.
func lcm(x, y int) int {
	g, r := x, y
	for r != 0 {
		g, r = r, g%r
	}
	return x / g * y
}

// newBand stores v as a band that repeats with period p over rows
// [a, c), with a table of bandTile + period values, or as a dense band
// on v when p = 0. A periodic band copies its head and tail rows out of
// v, so it keeps nothing of v alive.
func newBand(v []float64, a, c, p, period int) band {
	n := len(v)
	if p == 0 {
		return band{data: v, head: v, a: n, c: n}
	}
	buf := make([]float64, a+n-c+bandTile+period)
	bd := band{
		data:  buf,
		head:  buf[:a:a],
		tail:  buf[a : a+n-c : a+n-c],
		table: buf[a+n-c:],
		a:     a,
		c:     c,
		p:     p,
	}
	copy(bd.head, v[:a])
	copy(bd.tail, v[c:])
	for j := range bd.table {
		bd.table[j] = v[a+(j+p-a%p)%p] // the row of [a, a+p) that is ≡ j
	}
	return bd
}

// periodicRun returns the longest run of rows [a, c) within [lo, hi)
// over which v repeats bit for bit with some period p ≤ maxPeriod, of
// those longer than bandTile+p rows, or p = 0 when there is none. Row r
// repeats with period q when Float64bits(v[r]) == Float64bits(v[r−q]),
// so +0 and −0 differ, and a run [a, c) of period q is one whose rows
// [a+q, c) all repeat. Ties go to the shorter period.
//
// A qualifying run holds more than bandTile repeating rows, so it
// covers a row of the stride bandTile/2 from lo. So for each period the
// search grows the run of repeating rows about each stride row that
// repeats, skipping the stride rows the run covers: about one look per
// row in a long run, and a few per stride elsewhere. A run of a period
// q that is a multiple of the best period p so far contains that run's
// rows, since v[r] = v[r−p] = … = v[r−q] there; it grows from that run's
// ends instead of again across it.
func periodicRun(v []float64, lo, hi int) (a, c, p int) {
	const stride = bandTile / 2
	repeats := func(r, q int) bool { return math.Float64bits(v[r]) == math.Float64bits(v[r-q]) }
	for q := 1; q <= maxPeriod; q++ {
		for m := lo + stride; m < hi; m += stride {
			if !repeats(m, q) {
				continue
			}
			s, e := m, m+1 // rows [s, e) repeat
			if p > 0 && q%p == 0 && m >= a+q && m < c {
				s, e = a+q, c
			}
			for s > lo+q && repeats(s-1, q) {
				s--
			}
			for e < hi && repeats(e, q) {
				e++
			}
			if e-s > bandTile && e-s+q > c-a {
				a, c, p = s-q, e, q
			}
			m = lo + (e-lo)/stride*stride // row e does not repeat
		}
	}
	return a, c, p
}

// index returns where in data the band's values for rows [lo, hi)
// start, given ph = lo mod P, P the matrix's period: rows lo to hi−1
// are data[index : index+hi−lo]. The rows must lie within one of the
// band's regions, [0, a), [a, c) or [c, n), and span at most bandTile
// rows within [a, c); lo < hi.
func (bd *band) index(lo, hi, ph int) int {
	switch {
	case hi <= bd.a:
		return lo
	case lo >= bd.c:
		return bd.a + lo - bd.c
	}
	return len(bd.data) - len(bd.table) + ph
}

// phase returns r mod b.period for 0 ≤ r < 2³² without a division: the
// low 64 bits of pinv·r are the fraction r/period scaled by 2⁶⁴, and
// times the period the high word is the remainder.
//
//numlint:hotpath
func (b *Banded) phase(r int) int {
	m, _ := bits.Mul64(b.pinv*uint64(r), uint64(b.period))
	return int(m)
}

// at returns entry (r, r+offs[k]).
func (b *Banded) at(k, r int) float64 { return b.bands[k].data[b.bands[k].index(r, r+1, b.phase(r))] }

// Validate performs the structural self-check of the band layout:
// strictly ascending in-range offsets, one n-row band per offset,
// finite values, a zero wherever a band's column leaves the matrix, a
// matrix period that is the lcm of the band periods, and for a periodic
// band, regions that lie in the interior and a table that repeats with
// its period.
// NewBanded checks the shape; Validate backs the debugchecks invariant
// layer (internal/check) and is cheap enough to call directly in tests.
func (b *Banded) Validate() error {
	if len(b.offs) == 0 || len(b.offs) > MaxBands || len(b.bands) != len(b.offs) {
		return fmt.Errorf("sparse: %d offsets and %d bands", len(b.offs), len(b.bands))
	}
	period := 1
	for _, bd := range b.bands {
		if bd.p < 0 || bd.p > maxPeriod {
			return fmt.Errorf("sparse: band period %d outside [0, %d]", bd.p, maxPeriod)
		}
		if bd.p > 0 {
			period = lcm(period, bd.p)
		}
	}
	if b.period != period || b.pinv != ^uint64(0)/uint64(period)+1 {
		return fmt.Errorf("sparse: matrix period %d (reciprocal %#x) for band periods %v", b.period, b.pinv, b.Periods())
	}
	for k, o := range b.offs {
		if k > 0 && o <= b.offs[k-1] {
			return fmt.Errorf("sparse: band offsets %v not strictly ascending", b.offs)
		}
		bd := &b.bands[k]
		if o <= -b.n || o >= b.n || len(bd.head) != bd.a || len(bd.tail) != b.n-bd.c {
			return fmt.Errorf("sparse: band %d (offset %d, %d+%d explicit values for regions [0,%d) and [%d,%d)) in a %dx%d matrix",
				k, o, len(bd.head), len(bd.tail), bd.a, bd.c, b.n, b.n, b.n)
		}
		if err := bd.validatePeriod(b.lo, b.hi, b.n, b.period); err != nil {
			return fmt.Errorf("sparse: band %d (offset %d): %w", k, o, err)
		}
		for r := 0; r < b.n; r++ {
			v := b.at(k, r)
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

// validatePeriod checks a band's periodic layout against the interior
// rows [lo, hi) of an n-row matrix with the given period: a dense band
// has a = c = n, and a periodic one a run in the interior longer than
// its table, which holds bandTile+period values repeating bit for bit
// with the band's period.
func (bd *band) validatePeriod(lo, hi, n, period int) error {
	if bd.p == 0 {
		if bd.a != n || bd.c != n || bd.table != nil {
			return fmt.Errorf("dense band with regions [0,%d) and [%d,%d) and a %d-value table", bd.a, bd.c, n, len(bd.table))
		}
		return nil
	}
	if bd.a < lo || bd.c > hi || bd.c-bd.a <= bandTile+period || len(bd.table) != bandTile+period {
		return fmt.Errorf("period %d over rows [%d,%d) of interior [%d,%d) with a %d-value table (matrix period %d)",
			bd.p, bd.a, bd.c, lo, hi, len(bd.table), period)
	}
	for j := bd.p; j < len(bd.table); j++ {
		if math.Float64bits(bd.table[j]) != math.Float64bits(bd.table[j-bd.p]) {
			return fmt.Errorf("table entry %d is %v, %d entries earlier %v: not period %d",
				j, bd.table[j], bd.p, bd.table[j-bd.p], bd.p)
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

// Periods returns each band's period, in offset order: 0 for a band
// stored row by row.
func (b *Banded) Periods() []int {
	ps := make([]int, len(b.bands))
	for k, bd := range b.bands {
		ps[k] = bd.p
	}
	return ps
}

// PeriodicBands reports how many bands are stored as a period.
func (b *Banded) PeriodicBands() int {
	np := 0
	for _, bd := range b.bands {
		if bd.p > 0 {
			np++
		}
	}
	return np
}

// StoredValues reports how many float64 values the bands hold: n for a
// dense band, and a+(n−c)+bandTile+P for a periodic one, P the lcm of
// the band periods.
//
//numlint:ignore testonly test seam: TestPeriodicBandLayout pins the stored layout
func (b *Banded) StoredValues() int {
	sum := 0
	for _, bd := range b.bands {
		sum += len(bd.head) + len(bd.tail) + len(bd.table)
	}
	return sum
}

// segments appends the segments of rows [lo, hi) to segs. A segment
// ends bandTile rows on, at hi, or at the next cut, whichever comes
// first, so it reads each band from one region (see band.index) and the
// same bands have their column in the matrix on every one of its rows:
// bands [k0, k1), contiguous because the offsets ascend. Each such band
// contributes the offsets of its values and of its entries of x for the
// segment's first row; the other bands hold zeros there and are
// skipped. Both ranges are checked here, against the band's storage and
// against Cols(), so a kernel may read them unchecked (see
// segmentRowsAVX2). Where a segment ends changes no row's value.
func (b *Banded) segments(segs []segment, lo, hi int) []segment {
	for t := lo; t < hi; {
		e := b.tileEnd(t, hi)
		s := segment{lo: int32(t), hi: int32(e)}
		k0, k1 := 0, len(b.offs)
		for k0 < k1 && t+b.offs[k0] < 0 {
			k0++
		}
		for k1 > k0 && t+b.offs[k1-1] >= b.n {
			k1--
		}
		s.k0, s.k1 = uint8(k0), uint8(k1)
		ph := b.phase(t)
		for k := k0; k < k1; k++ {
			bd, o := &b.bands[k], b.offs[k]
			v := bd.index(t, e, ph)
			if v+e-t > len(bd.data) || t+o < 0 || e+o > b.Cols() {
				panic(fmt.Sprintf("sparse: segment [%d,%d) of band %d reads values [%d,%d) of %d and x[%d:%d] of %d",
					t, e, k, v, v+e-t, len(bd.data), t+o, e+o, b.Cols()))
			}
			s.v[k-k0], s.x[k-k0] = int32(v), int32(t+o)
		}
		segs = append(segs, s)
		t = e
	}
	return segs
}

// tileEnd returns where the segment that starts at row t ends: bandTile
// rows on, at end, or at the next cut, whichever comes first.
func (b *Banded) tileEnd(t, end int) int {
	e := min(t+bandTile, end)
	for _, c := range b.cuts {
		if c > t {
			return min(e, c)
		}
	}
	return e
}

// mulSegment is the banded kernel over one segment: dst[r] = Σ_k
// vals[k][r]·x[r+offs[k]] over the segment's bands.
//
// Each row sums its bands from 0.0 in ascending column order, the
// order CSR.mulRows visits the row's nonzeros. A padded zero adds
// 0·x = ±0, which leaves any sum other than −0 unchanged, and a sum that
// starts at +0 never becomes −0 (only −0 + −0 is −0). A band whose
// column leaves the matrix is not read at all. So for finite x every
// row is bit-identical to the CSR product of the same entries.
//
//numlint:hotpath
func (b *Banded) mulSegment(s *segment, dst, x []float64) {
	if useAVX2 {
		b.segmentRowsAVX2(s, dst, x)
	} else {
		b.segmentRowsGo(s, dst, x)
	}
}

// Kernel names the row kernel the banded products run: "bands-avx2"
// where the vectorised kernel is built and the CPU has AVX2, "bands"
// otherwise.
func (b *Banded) Kernel() string {
	if useAVX2 {
		return "bands-avx2"
	}
	return "bands"
}

// segmentRowsGo computes the rows of s on the Go passes: passes of two
// to four unrolled bands (one for a single band, none for a segment
// where no band's column lies in the matrix). The first pass sets dst,
// each later pass adds its bands on top, so a row still sums its bands
// in ascending order. It slices each band's values and its window of x
// afresh from the segment's offsets, so every element it reads is
// bounds-checked against the band and x themselves.
//
//numlint:hotpath
func (b *Banded) segmentRowsGo(s *segment, dst, x []float64) {
	d := dst[s.lo:s.hi]
	n := len(d)
	var v, xs [MaxBands][]float64
	for k := range int(s.k1 - s.k0) {
		vo, xo := int(s.v[k]), int(s.x[k])
		v[k], xs[k] = b.bands[int(s.k0)+k].data[vo:vo+n], x[xo:xo+n]
	}
	switch s.k1 - s.k0 {
	case 0:
		clear(d)
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
