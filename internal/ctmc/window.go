package ctmc

import (
	"math"
	"slices"
	"sort"

	"batlife/internal/sparse"
)

// Windowed uniformisation (after Hahn et al., "Transient Reward
// Approximation for Continuous-Time Markov Chains"): each step multiplies
// only the rows that can carry probability mass. The window is a sorted
// list of disjoint, non-adjacent row intervals that holds the support of
// the current iterate. A step grows it by the generator's index offsets,
// computes the next iterate on the grown rows only, and trims each
// interval's ends while their entries fall below θ, tallying exactly the
// mass it drops.

// maxShiftRanges caps the number of offset ranges that grow a window per
// step. Nearby offsets are merged until at most this many remain, so a
// chain of arbitrary structure degrades towards the full row range
// instead of an unbounded merge.
const maxShiftRanges = 8

// trimFactor sets the trimming threshold θ = trimFactor·ε. θ depends on
// nothing but ε, so every drop decision depends only on ε and the
// history of the iterate: solves that share an iterate sequence (one
// chain, one α) make identical decisions whatever their time points.
const trimFactor = 1e-8

// shiftRanges returns the index offsets r − c of the nonzeros of pt
// (transition c → r of the chain) as at most maxShiftRanges ascending
// inclusive ranges, flattened as a0, b0, a1, b1, …. One range always
// holds 0, even where Pᵀ's diagonal entry is zero, so a grown window
// covers the one it grew from.
func shiftRanges(pt *sparse.CSR) []int {
	// addShift grows the list by at most one range past the cap before
	// merging, so this capacity is never exceeded.
	rs := addShift(make([]int, 0, 2*maxShiftRanges+2), 0)
	for r := 0; r < pt.Rows(); r++ {
		pt.Row(r, func(c int, _ float64) { rs = addShift(rs, r-c) })
	}
	return rs
}

// bandShifts returns the window shift ranges of a banded Pᵀ: its band
// offsets c − r, negated and coalesced as shiftRanges coalesces them.
func bandShifts(offsets []int) []int {
	rs := addShift(make([]int, 0, 2*maxShiftRanges+2), 0)
	for _, o := range offsets {
		rs = addShift(rs, -o)
	}
	return rs
}

// addShift adds offset d to the sorted ranges rs, coalescing touching
// ranges and, past maxShiftRanges, merging the two neighbours with the
// smallest gap.
func addShift(rs []int, d int) []int {
	i := 0
	for i < len(rs) && rs[i+1] < d {
		i += 2
	}
	if i < len(rs) && rs[i] <= d {
		return rs
	}
	rs = slices.Insert(rs, i, d, d)
	if i > 0 && rs[i-1]+1 == d {
		rs = slices.Delete(rs, i-1, i+1)
		i -= 2
	}
	if i+2 < len(rs) && rs[i+2] == rs[i+1]+1 {
		rs = slices.Delete(rs, i+1, i+3)
	}
	if len(rs)/2 > maxShiftRanges {
		best := 1
		for k := 3; k+1 < len(rs); k += 2 {
			if rs[k+1]-rs[k] < rs[best+1]-rs[best] {
				best = k
			}
		}
		rs = slices.Delete(rs, best, best+2)
	}
	return rs
}

// window tracks the active rows of the uniformisation loop. cur is the
// window of the current iterate, prev the window the other iteration
// buffer was last written on, grown the rows the next product computes
// and trimmed the grown rows left after trimming. Each is a list of
// [lo, hi) pairs flattened as lo0, hi0, ….
//
// grown depends on cur alone, so while trimming leaves cur as it was,
// grown and the product plan built over it stay valid: the window
// regrows and replans only after a step that changed cur, and then only
// the rows the change can reach (see regrow and sparse.Pool.Plan).
type window struct {
	cur, prev, grown, trimmed []int32
	shifts                    []int
	n                         int
	pool                      *sparse.Pool
	m                         sparse.Operator

	// planned reports that grown and plan are those of cur; steady
	// that the last step left cur unchanged, so prev equals cur.
	planned, steady bool
	plan            sparse.Plan
	plans           int // products whose plan changed, over the solve
	grownRows       int // rows of grown

	theta, budget float64
	dropped       float64
	trimming      bool
	rows          int // rows computed over all products
}

// newWindow returns the window of alpha's support, whose products run
// m on pool.
//
// The lists and the plan start with room for ⌈√n⌉ intervals, n the
// state count. An expanded battery chain's window holds about one
// interval per level of available charge, and those number about √n:
// at most 46 on Fig. 8 at Δ = 100 (2,576 states), 91 at Δ = 50 (10,010)
// and 253 on Fig. 10 at Δ = 2 mAh (113,703). Sized so, they never
// regrow there; on a chain whose window outgrows them, a list moves out
// of the shared buffer on append and the plan grows its own.
func newWindow(pool *sparse.Pool, m sparse.Operator, alpha []float64, shifts []int, eps float64) *window {
	n := len(alpha)
	iv := int(math.Ceil(math.Sqrt(float64(n))))
	share := 2 * iv
	buf := make([]int32, 4*share)
	w := &window{
		cur:      buf[0:0:share],
		prev:     buf[share : share : 2*share],
		grown:    buf[2*share : 2*share : 3*share],
		trimmed:  buf[3*share : 3*share : 4*share],
		shifts:   shifts,
		n:        n,
		pool:     pool,
		m:        m,
		theta:    trimFactor * eps,
		budget:   eps,
		trimming: true,
	}
	pool.Reserve(&w.plan, m, iv)
	for i := 0; i < len(alpha); {
		if alpha[i] == 0 {
			i++
			continue
		}
		lo := i
		for i < len(alpha) && alpha[i] != 0 {
			i++
		}
		w.cur = append(w.cur, int32(lo), int32(i))
	}
	return w
}

// prepare returns the plan of the next product, over grown: the one
// already built while cur has not changed since, else the plan updated
// to cur's grown rows, which regrow brings up to date first. A move of
// cur that leaves the grown rows as they were leaves the plan as it
// was too, except on the first step, which always builds one. It
// counts the product's rows.
func (w *window) prepare() (*sparse.Plan, error) {
	if !w.planned {
		if w.regrow() || w.plans == 0 {
			if err := w.pool.Plan(&w.plan, w.m, w.grown); err != nil {
				return nil, err
			}
			w.plans++
		}
		w.planned = true
	}
	w.rows += w.grownRows
	return &w.plan, nil
}

// regrow sets grown, the rows of prev shifted by every offset range,
// clipped to the chain and merged, to those of cur. A row r is grown
// when r − s lies in the window for some shift s, so r can change only
// if some r − s, s in [smin, smax], lies where prev and cur differ: in
// a moved stretch [a, b) of rows, widened to [a + smin, b + smax). Off
// those stretches grown keeps its intervals; on each, regrow merges the
// shifted images of the cur intervals that reach it, and splices them
// in. The result is exactly what a grow from nothing gives, which is
// this same path with prev and grown empty, as on the first step. It
// reports whether grown changed.
func (w *window) regrow() bool {
	smin, smax := w.shifts[0], w.shifts[len(w.shifts)-1]
	sp := splice{out: w.trimmed[:0], old: w.grown}
	d := rowDiff{a: w.prev, b: w.cur}
	lo, hi := 0, 0 // the widened stretch being gathered; empty at first
	for {
		a, b, ok := d.next()
		if ok {
			a, b = max(a+smin, 0), min(b+smax, w.n)
			if a >= b {
				continue
			}
			if lo < hi && a <= hi {
				hi = max(hi, b)
				continue
			}
		}
		if lo < hi {
			sp.keep(lo)
			w.mergeShifted(&sp, lo, hi)
			sp.skip(hi)
		}
		if !ok {
			break
		}
		lo, hi = a, b
	}
	sp.keep(w.n)
	changed := !slices.Equal(sp.out, w.grown)
	w.grown, w.trimmed = sp.out, w.grown[:0]
	w.grownRows = 0
	for i := 0; i < len(w.grown); i += 2 {
		w.grownRows += int(w.grown[i+1] - w.grown[i])
	}
	return changed
}

// mergeShifted appends to sp the grown rows of cur within [lo, hi): the
// cur intervals whose widened extent reaches [lo, hi), shifted by every
// offset range and clipped to it. Each shift keeps cur's order, so this
// is a k-way merge of sorted lists: no sort.
func (w *window) mergeShifted(sp *splice, lo, hi int) {
	smin, smax := w.shifts[0], w.shifts[len(w.shifts)-1]
	cur := w.cur
	first := sort.Search(len(cur)/2, func(i int) bool { return int(cur[2*i+1])+smax > lo })
	end := first + sort.Search(len(cur)/2-first, func(i int) bool { return int(cur[2*(first+i)])+smin >= hi })
	cur = cur[2*first : 2*end]
	var heads [maxShiftRanges]int
	k := len(w.shifts) / 2
	for {
		best, bestLo := -1, 0
		for s := 0; s < k; s++ {
			if h := heads[s]; h < len(cur) {
				if l := int(cur[h]) + w.shifts[2*s]; best < 0 || l < bestLo {
					best, bestLo = s, l
				}
			}
		}
		if best < 0 {
			return
		}
		sp.push(max(bestLo, lo), min(int(cur[heads[best]+1])+w.shifts[2*best+1], hi))
		heads[best] += 2
	}
}

// splice builds a window list in out from the intervals of old and from
// recomputed stretches, in ascending row order: keep copies old's rows
// up to a row, push appends recomputed rows, and skip passes over old's
// rows up to a row. Rows below pos are done.
type splice struct {
	out, old []int32
	i, pos   int // the next interval of old, and the first row not done
}

// push appends rows [lo, hi) to out, merging them into the last
// interval when the two touch or overlap; an empty range adds nothing.
func (sp *splice) push(lo, hi int) {
	if lo >= hi {
		return
	}
	if l := len(sp.out); l > 0 && lo <= int(sp.out[l-1]) {
		sp.out[l-1] = max(sp.out[l-1], int32(hi))
		return
	}
	sp.out = append(sp.out, int32(lo), int32(hi))
}

// keep appends old's rows in [pos, to) to out, and makes to the first
// row not done. Between the first and the last interval it copies, the
// intervals are whole and apart, so they go in as one block.
func (sp *splice) keep(to int) {
	old := sp.old
	if sp.i < len(old) && int(old[sp.i]) < to {
		sp.push(max(int(old[sp.i]), sp.pos), min(int(old[sp.i+1]), to))
		if int(old[sp.i+1]) <= to {
			sp.i += 2
			// old[i:j] lie whole below to; old[j] does not.
			j := sp.i + 2*sort.Search((len(old)-sp.i)/2, func(k int) bool { return int(old[sp.i+2*k+1]) > to })
			sp.out = append(sp.out, old[sp.i:j]...)
			sp.i = j
			if sp.i < len(old) && int(old[sp.i]) < to {
				sp.push(int(old[sp.i]), to)
			}
		}
	}
	sp.pos = to
}

// skip passes over old's rows below to, which a recomputed stretch
// replaced, and makes to the first row not done.
func (sp *splice) skip(to int) {
	for sp.i < len(sp.old) && int(sp.old[sp.i+1]) <= to {
		sp.i += 2
	}
	sp.pos = to
}

// rowDiff walks two window lists a and b together and yields, in
// ascending order, the maximal row ranges that lie in one and not the
// other.
type rowDiff struct {
	a, b     []int32
	i, j     int  // the next bound of a and of b
	inA, inB bool // whether the rows at the last bound lie in a and in b
}

// next returns the next range [lo, hi) of rows that lie in exactly one
// of a and b, or ok = false when there is none.
func (d *rowDiff) next() (lo, hi int, ok bool) {
	start := -1
	for d.i < len(d.a) || d.j < len(d.b) {
		if !d.inA && !d.inB {
			// Intervals that both lists hold differ nowhere.
			a, b := d.a, d.b
			for d.i < len(a) && d.j < len(b) && a[d.i] == b[d.j] && a[d.i+1] == b[d.j+1] {
				d.i, d.j = d.i+2, d.j+2
			}
			if d.i >= len(a) && d.j >= len(b) {
				break
			}
		}
		x := math.MaxInt
		if d.i < len(d.a) {
			x = int(d.a[d.i])
		}
		if d.j < len(d.b) {
			x = min(x, int(d.b[d.j]))
		}
		if d.i < len(d.a) && int(d.a[d.i]) == x {
			d.inA = !d.inA
			d.i++
		}
		if d.j < len(d.b) && int(d.b[d.j]) == x {
			d.inB = !d.inB
			d.j++
		}
		switch differ := d.inA != d.inB; {
		case differ && start < 0:
			start = x
		case !differ && start >= 0:
			return start, x, true
		}
	}
	return 0, 0, false
}

// zeroStale clears the rows of buf that prev left behind outside grown,
// so buf is zero off the rows the product just wrote. After a step that
// left the window unchanged prev is cur, which grown covers (one shift
// range holds 0): there is nothing to clear.
func (w *window) zeroStale(buf []float64) {
	if w.steady {
		return
	}
	cur := w.grown
	j := 0
	for i := 0; i < len(w.prev); i += 2 {
		lo, hi := w.prev[i], w.prev[i+1]
		for lo < hi {
			for j < len(cur) && cur[j+1] <= lo {
				j += 2
			}
			if j >= len(cur) || cur[j] >= hi {
				clear(buf[lo:hi])
				break
			}
			if cur[j] > lo {
				clear(buf[lo:cur[j]])
			}
			lo = cur[j+1]
		}
	}
}

// settled reports whether no row of grown moved by more than tol from v
// to next. It stops at the first row that did; a NaN difference counts
// as no move, as in a running maximum of the differences.
func (w *window) settled(next, v []float64, tol float64) bool {
	for r := 0; r < len(w.grown); r += 2 {
		for i := w.grown[r]; i < w.grown[r+1]; i++ {
			if math.Abs(next[i]-v[i]) > tol {
				return false
			}
		}
	}
	return true
}

// trim sets trimmed to grown with both ends of every interval cut while
// their entries are below θ, zeroing each dropped entry and adding it to
// the tally. Trimming stops for good once the tally would pass the
// budget ε.
func (w *window) trim(v []float64) {
	out := w.trimmed[:0]
	for i := 0; i < len(w.grown); i += 2 {
		lo, hi := w.grown[i], w.grown[i+1]
		for lo < hi && w.drop(v, lo) {
			lo++
		}
		for hi > lo && w.drop(v, hi-1) {
			hi--
		}
		if lo < hi {
			out = append(out, lo, hi)
		}
	}
	w.trimmed = out
}

// drop zeroes v[i] and tallies it when it is below θ and the budget
// allows; it reports whether the entry was dropped.
func (w *window) drop(v []float64, i int32) bool {
	a := math.Abs(v[i])
	if !w.trimming || a >= w.theta {
		return false
	}
	if w.dropped+a > w.budget {
		w.trimming = false
		return false
	}
	w.dropped += a
	v[i] = 0
	return true
}

// advance makes the trimmed window current once the iteration buffers
// have swapped: the old current window now describes the other buffer.
// A trimmed window equal to cur keeps cur, grown and the plan.
func (w *window) advance() {
	w.steady = slices.Equal(w.trimmed, w.cur)
	if w.steady {
		w.prev, w.trimmed = w.trimmed, w.prev
		return
	}
	w.cur, w.prev, w.trimmed = w.trimmed, w.cur, w.prev
	w.planned = false
}
