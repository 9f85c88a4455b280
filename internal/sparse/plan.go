package sparse

import (
	"fmt"
	"slices"
	"sort"

	"batlife/internal/check"
)

// Operator is a matrix a Plan multiplies: a *CSR or a *Banded. Its
// segment kernels are unexported, so no other type satisfies it.
type Operator interface {
	Rows() int
	Cols() int
	// Kernel names the row kernel the operator's products run: "csr",
	// "bands" or "bands-avx2".
	Kernel() string
	// segments appends the segments of rows [lo, hi) to segs, the
	// pieces a product computes one kernel call each.
	segments(segs []segment, lo, hi int) []segment
	// mulSegment computes dst[r] = m[r,:]·x on the rows of s.
	mulSegment(s *segment, dst, x []float64)
}

// segment is rows [lo, hi) of one product, computed in one kernel call.
// A CSR reads only the rows. For a Banded (see Banded.segments) the
// rows lie in one tile and bands [k0, k1) have their column in the
// matrix on every row; for each such band k, v[k−k0] is where the
// band's storage holds row lo's value and x[k−k0] = lo + offs[k] the
// entry of x that value multiplies.
type segment struct {
	lo, hi int32
	k0, k1 uint8
	v, x   [MaxBands]int32
}

// Plan is the schedule of products over one list of row ranges of one
// operator: the ranges cut into segments. Build makes it, and MulVec
// runs it for as many products as the ranges stay the same, such as the
// steps over which the uniformisation loop's active window does not
// move. A Plan keeps the range list it was cut from, so a Build over a
// list that moved recuts only the ranges that changed.
// A Plan holds no vector, so products on any vectors of the right shape
// may share it, concurrently too. The zero Plan is unbuilt.
type Plan struct {
	m Operator
	// ranges is the range list the segments were cut from.
	ranges []int32
	segs   []segment
}

// checkRange reports whether range k of a range list of m, ranges[k]
// to ranges[k+1], is nonempty, within m's rows and above the range
// before it.
func checkRange(m Operator, ranges []int32, k int) error {
	prev := int32(0)
	if k > 0 {
		prev = ranges[k-1]
	}
	if ranges[k] < prev || ranges[k] >= ranges[k+1] || int(ranges[k+1]) > m.Rows() {
		return fmt.Errorf("sparse: plan range [%d,%d) after %d in %d rows: %w",
			ranges[k], ranges[k+1], prev, m.Rows(), ErrShape)
	}
	return nil
}

// cut makes pl's segments those of m over ranges, or reports an error
// if ranges is not a valid range list of m: an even number of bounds,
// each range [lo, hi) nonempty, within m's rows and above the one
// before. A run of ranges that pl was already
// cut from keeps its segments, and was checked then, so only its first
// range is checked again, against the range before it. The ranges that
// differ come in hunks: runs of ranges of the new list, and of the kept
// one, between two such runs. A hunk's new ranges are checked and cut
// past the live segments, then moved in place of the old ranges'
// segments, so pl.segs needs room for twice the segments of a list
// (see Reserve). A new operator changes every range, so the first build
// is one hunk of all of them. On an error pl is left part cut.
func (pl *Plan) cut(m Operator, ranges []int32) error {
	if len(ranges)%2 != 0 {
		return fmt.Errorf("sparse: plan with %d range bounds: %w", len(ranges), ErrShape)
	}
	if pl.m != m {
		pl.m, pl.ranges, pl.segs = m, pl.ranges[:0], pl.segs[:0]
	}
	old := pl.ranges
	i, j, s := 0, 0, 0 // the next old range, new range, and segment
	for i < len(old) || j < len(ranges) {
		i1, j1 := i, j
		for i1 < len(old) && j1 < len(ranges) && old[i1] == ranges[j1] && old[i1+1] == ranges[j1+1] {
			i1, j1 = i1+2, j1+2
		}
		if j1 > j {
			if err := checkRange(m, ranges, j); err != nil {
				return err
			}
			i, j = i1, j1
			// The segments of the ranges passed lie below old[i].
			if i < len(old) {
				s += sort.Search(len(pl.segs)-s, func(k int) bool { return pl.segs[s+k].lo >= old[i] })
			} else {
				s = len(pl.segs)
			}
			continue
		}
		// The hunk ends where a run of shared ranges starts. Either list
		// steps past its range with the lower start, both on a tie, so
		// the two meet at every range they share.
		j0, s0 := j, s
		for i < len(old) || j < len(ranges) {
			if i < len(old) && j < len(ranges) && old[i] == ranges[j] && old[i+1] == ranges[j+1] {
				break
			}
			switch {
			case j >= len(ranges) || (i < len(old) && old[i] < ranges[j]):
				i += 2
			case i >= len(old) || ranges[j] < old[i]:
				j += 2
			default:
				i, j = i+2, j+2
			}
		}
		for s < len(pl.segs) && (i >= len(old) || pl.segs[s].lo < old[i]) {
			s++
		}
		live := len(pl.segs)
		segs := pl.segs
		for k := j0; k < j; k += 2 {
			if err := checkRange(m, ranges, k); err != nil {
				return err
			}
			segs = m.segments(segs, int(ranges[k]), int(ranges[k+1]))
		}
		pl.segs = slices.Replace(segs[:live], s0, s, segs[live:]...)
		s = s0 + len(segs) - live
	}
	pl.ranges = append(pl.ranges[:0], ranges...)
	return nil
}

// Build checks ranges and makes pl the plan of m's products over them,
// reusing pl's storage; pl keeps a copy of ranges, not ranges itself.
// ranges lists ascending, disjoint, row intervals [lo, hi), each
// nonempty, flattened as lo0, hi0, lo1, hi1, …, such as the active
// window of a uniformisation step or one strand's share of it. If pl
// was last built for m, only the ranges that differ from that build's
// are recut (see cut). On a bad range list pl is left unbuilt.
func (pl *Plan) Build(m Operator, ranges []int32) error {
	if err := pl.cut(m, ranges); err != nil {
		pl.m = nil
		return err
	}
	return nil
}

// Reserve makes room in pl for the plan of m's products over up to
// ranges row ranges, so that Build builds or rebuilds any such plan
// without allocating. A segment ends where its range does, and a
// Banded's also at every cut and every bandTile rows; a rebuild cuts a
// hunk's segments past the live ones (see cut), so the plan holds room
// for two lists of them.
func (pl *Plan) Reserve(m Operator, ranges int) {
	segs := ranges
	if b, ok := m.(*Banded); ok {
		segs += b.n/bandTile + len(b.cuts)
	}
	if cap(pl.segs) < 2*segs {
		pl.segs = make([]segment, 0, 2*segs)
	}
	if cap(pl.ranges) < 2*ranges {
		pl.ranges = make([]int32, 0, 2*ranges)
	}
}

// MulVec computes dst[r] = m[r,:]·x for every row r of the plan's
// ranges, m its operator, on the calling goroutine, and leaves every
// other row of dst untouched. dst and x must not alias; every computed
// row is bit-identical to CSR.MulVec's on the CSR of the same entries.
func (pl *Plan) MulVec(dst, x []float64) error {
	m := pl.m
	if m == nil {
		return fmt.Errorf("sparse: MulVec on an unbuilt plan: %w", ErrShape)
	}
	if len(x) != m.Cols() || len(dst) != m.Rows() {
		return fmt.Errorf("sparse: plan MulVec %dx%d with |x|=%d |dst|=%d: %w",
			m.Rows(), m.Cols(), len(x), len(dst), ErrShape)
	}
	for i := range pl.segs {
		m.mulSegment(&pl.segs[i], dst, x)
	}
	if check.Enabled {
		for _, s := range pl.segs {
			check.FiniteVec("sparse.Plan.MulVec", dst[s.lo:s.hi])
		}
	}
	return nil
}
