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
// grown and the product plans built over it stay valid: the window
// regrows and replans only after a step that changed cur, and then only
// the rows the change can reach (see regrow and sparse.Plan.Build).
//
// A step runs on one strand, the caller, or on two: the caller and a
// worker lent by the pool. sides[0] is the caller's share of grown and
// sides[1] the worker's; row mid divides them, and is n on one strand.
type window struct {
	cur, prev, grown, trimmed []int32
	shifts                    []int
	n                         int
	m                         sparse.Operator

	// planned reports that grown is that of cur; steady that the last
	// step left cur unchanged, so prev equals cur; resplit that grown
	// changed since the sides were cut from it.
	planned, steady, resplit bool
	plans                    int // products whose plan changed, over the solve
	grownRows                int // rows of grown

	sides [2]side
	mid   int32
	pass  tally // the trim in progress

	theta, budget float64
	dropped       float64
	trimming      bool
	rows          int // rows computed over all products
}

// side is one strand's share of a step: the rows [lo, hi) it owns, and
// ranges, the rows of grown among them, which plan computes. Every
// interval of grown lies in one side's ranges, but for one that holds
// row mid, which each side holds its part of. On side 1, runs holds,
// per range, how many trim candidates the lent worker cut at its low
// end, then at its high end, and cut their values, for the caller to
// tally (see cutRuns and trim); wv holds the iterate's entries on w's
// support among the side's rows, before the cut, for the functional
// fold.
type side struct {
	ranges, runs []int32
	cut, wv      []float64
	lo, hi       int32
	plan         sparse.Plan
	// replan reports that ranges changed since plan was cut.
	replan  bool
	settled bool
	err     error
	// own is the storage of ranges while two strands split grown; on
	// one strand, side 0's ranges are grown itself.
	own []int32
}

// newWindow returns the window of alpha's support, whose products run
// m.
//
// The lists and the plan start with room for ⌈√n⌉ intervals, n the
// state count. An expanded battery chain's window holds about one
// interval per level of available charge, and those number about √n:
// at most 46 on Fig. 8 at Δ = 100 (2,576 states), 91 at Δ = 50 (10,010)
// and 253 on Fig. 10 at Δ = 2 mAh (113,703). Sized so, they never
// regrow there; on a chain whose window outgrows them, a list moves out
// of the shared buffer on append and the plan grows its own.
func newWindow(m sparse.Operator, alpha []float64, shifts []int, eps float64) *window {
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
		mid:      int32(n),
		m:        m,
		theta:    trimFactor * eps,
		budget:   eps,
		trimming: true,
	}
	w.sides[0].hi = int32(n)
	w.sides[1].lo, w.sides[1].hi = int32(n), int32(n)
	w.sides[0].plan.Reserve(m, iv)
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

// prepare brings grown up to date once cur has moved (see regrow) and
// counts the product's rows. A move of cur that leaves the grown rows
// as they were leaves the sides and their plans as they were too. It
// counts a plan change when grown changed, and on the first step.
func (w *window) prepare() {
	if !w.planned {
		if w.regrow() || w.plans == 0 {
			w.plans++
			w.resplit = true
		}
		w.planned = true
	}
	w.rows += w.grownRows
}

// split divides grown between the sides for the next product: all of
// it to side 0 on one strand; on two, at row mid. mid stays while it
// lies between two intervals of grown and the two sides' rows differ
// by at most a sixteenth of grown's, so a move of grown recuts each
// side's plan only where grown moved. Otherwise, and when a solve turns
// to two strands, mid moves (see halvingRow). A side whose ranges
// changed is marked for replanning.
func (w *window) split(two bool) {
	s0, s1 := &w.sides[0], &w.sides[1]
	n := int32(w.n)
	if !two {
		// grown's buffer changes on every regrow, even to equal rows.
		s0.ranges = w.grown
		if w.resplit || w.mid != n {
			w.mid, w.resplit = n, false
			s0.hi, s1.lo = n, n
			s1.ranges = s1.ranges[:0]
			s0.replan = true
		}
		return
	}
	if !w.resplit && w.mid != n {
		return
	}
	mid := w.mid
	if left, inside := w.rowsBelow(mid); mid == n || inside || !w.balanced(left) {
		mid = w.halvingRow()
	}
	if s1.own == nil {
		iv := cap(w.grown) / 2
		s1.plan.Reserve(w.m, iv)
		s0.own = make([]int32, 0, 2*iv)
		s1.own = make([]int32, 0, 2*iv)
		s1.runs = make([]int32, 0, 2*iv)
	}
	s0.own, s1.own = s0.own[:0], s1.own[:0]
	for i := 0; i < len(w.grown); i += 2 {
		lo, hi := w.grown[i], w.grown[i+1]
		if lo < mid {
			s0.own = append(s0.own, lo, min(hi, mid))
		}
		if hi > mid {
			s1.own = append(s1.own, max(lo, mid), hi)
		}
	}
	s0.ranges, s1.ranges = s0.own, s1.own
	w.mid, w.resplit = mid, false
	s0.hi, s1.lo = mid, mid
	s0.replan, s1.replan = true, true
	if cap(s1.runs) < len(s1.ranges) {
		s1.runs = make([]int32, 0, 2*len(s1.ranges))
	}
	s1.runs = s1.runs[:len(s1.ranges)]
}

// rowsBelow counts grown's rows below row r, and reports whether r
// lies inside an interval of grown, one that holds r − 1 and r.
func (w *window) rowsBelow(r int32) (rows int, inside bool) {
	for i := 0; i < len(w.grown) && w.grown[i] < r; i += 2 {
		rows += int(min(w.grown[i+1], r) - w.grown[i])
		inside = w.grown[i+1] > r
	}
	return rows, inside
}

// balanced reports whether a split with left of grown's rows below it
// leaves the two sides within a sixteenth of grown's rows of each other.
func (w *window) balanced(left int) bool {
	d := 2*left - w.grownRows
	return -w.grownRows/16 <= d && d <= w.grownRows/16
}

// halvingRow returns the split row of grown: the bound of the interval
// that holds grown's middle row nearer to it, when that split is
// balanced, so no interval has a part on each side; else the middle row
// itself.
func (w *window) halvingRow() int32 {
	half, below := w.grownRows/2, 0
	for i := 0; i < len(w.grown); i += 2 {
		lo, hi := w.grown[i], w.grown[i+1]
		rows := int(hi - lo)
		if below+rows <= half {
			below += rows
			continue
		}
		switch {
		case half-below <= below+rows-half && w.balanced(below):
			return lo
		case w.balanced(below + rows):
			return hi
		}
		return lo + int32(half-below)
	}
	return int32(w.n)
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

// zeroStale clears the rows of buf in [from, to) that prev left behind
// outside grown, so buf is zero there off the rows the product just
// wrote. After a step that left the window unchanged prev is cur, which
// grown covers (one shift range holds 0): there is nothing to clear.
func (w *window) zeroStale(buf []float64, from, to int32) {
	if w.steady {
		return
	}
	prev, cur := w.prev, w.grown
	i := 2 * sort.Search(len(prev)/2, func(k int) bool { return prev[2*k+1] > from })
	j := 2 * sort.Search(len(cur)/2, func(k int) bool { return cur[2*k+1] > from })
	for ; i < len(prev) && prev[i] < to; i += 2 {
		lo, hi := max(prev[i], from), min(prev[i+1], to)
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

// settled reports whether no row of ranges moved by more than tol from
// v to next. It stops at the first row that did; a NaN difference
// counts as no move, as in a running maximum of the differences.
func settled(next, v []float64, tol float64, ranges []int32) bool {
	for r := 0; r < len(ranges); r += 2 {
		for i := ranges[r]; i < ranges[r+1]; i++ {
			if math.Abs(next[i]-v[i]) > tol {
				return false
			}
		}
	}
	return true
}

// cutRuns cuts the trim candidates of each of sd's ranges from v: the
// entries from its low end up that are not at least θ, then those from
// its high end down among the rest. It zeroes each one, appends its
// value to sd's cut in that order and records the two counts in sd's
// runs. The lent worker cuts its side so, at the same time as the
// caller runs its own; trim then tallies the cut values in interval
// order and puts back those that the budget does not allow. A window
// that stopped trimming cuts nothing.
func (w *window) cutRuns(v []float64, sd *side) {
	if !w.trimming {
		return
	}
	theta, r, cut := w.theta, sd.ranges, sd.cut[:0]
	for i := 0; i < len(r); i += 2 {
		lo, hi := r[i], r[i+1]
		a := lo
		for ; a < hi && !(math.Abs(v[a]) >= theta); a++ {
			cut = append(cut, v[a])
			v[a] = 0
		}
		b := hi
		for ; b > a && !(math.Abs(v[b-1]) >= theta); b-- {
			cut = append(cut, v[b-1])
			v[b-1] = 0
		}
		sd.runs[i], sd.runs[i+1] = a-lo, hi-b
	}
	sd.cut = cut
}

// The trim sets trimmed to grown with both ends of every interval cut
// while their entries are not at least θ, dropping each such entry and
// adding it to the tally: interval by interval, its low end up, then
// its high end down. Trimming stops for good once the tally would pass
// the budget ε. The caller runs it in two parts: trimOwn, on side 0's
// rows, as part of its share of the step, and trimRest after the
// barrier, which tallies the values the lent worker cut from side 1
// (see cutRuns) and puts back every one it does not drop.

// joined reports whether an interval of grown holds row mid, so that
// each side holds a part of it.
func (w *window) joined() bool {
	a, b := w.sides[0].ranges, w.sides[1].ranges
	return len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[0]
}

// trimOwn trims side 0's intervals, but for one that holds row mid,
// into trimmed. It leaves trimming as it was, which the lent worker
// reads meanwhile, and keeps the pass's state in pass.
func (w *window) trimOwn(v []float64) {
	a := w.sides[0].ranges
	if w.joined() {
		a = a[:len(a)-2]
	}
	w.pass = tally{v: v, theta: w.theta, dropped: w.dropped, budget: w.budget, on: w.trimming}
	w.trimmed = w.pass.trim(w.trimmed[:0], a)
}

// trimRest completes the trim after trimOwn: the interval that holds
// row mid, whose part on side 1 it puts back and trims whole, and side
// 1's other intervals, whose cut values it tallies.
func (w *window) trimRest(v []float64) {
	t, out := &w.pass, w.trimmed
	if b := &w.sides[1]; b.lo < b.hi {
		rb, cb := b.ranges, b.cut
		cut := w.trimming // whether the lent worker cut this step
		j := 0
		if w.joined() {
			a := w.sides[0].ranges
			if cut {
				k := b.runs[0] + b.runs[1]
				restore(v, rb[0], rb[1], b.runs[0], cb[:k], 0)
				cb = cb[k:]
			}
			out = t.trim(out, []int32{a[len(a)-2], rb[1]})
			j = 2
		}
		for ; j < len(rb); j += 2 {
			if !cut {
				out = append(out, rb[j], rb[j+1])
				continue
			}
			k := b.runs[j] + b.runs[j+1]
			out = t.tally(out, rb[j], rb[j+1], b.runs[j], b.runs[j+1], cb[:k])
			cb = cb[k:]
		}
	}
	w.trimmed, w.dropped, w.trimming = out, t.dropped, t.on
}

// tally is the state of one trim pass: the iterate, θ, the dropped
// mass, the budget and whether trimming goes on.
type tally struct {
	v                      []float64
	theta, dropped, budget float64
	on                     bool
}

// trim trims each interval of ranges, its low end up and then its high
// end down, and appends the rows left to out. Each entry not at least θ
// is zeroed and added to the dropped mass, until one would take it past
// the budget: that one stays, and trimming stops for good. An exact
// zero adds nothing and cannot pass the budget, so it is only zeroed.
// The pass keeps its state in locals.
func (t *tally) trim(out, ranges []int32) []int32 {
	v, theta, dropped, budget, on := t.v, t.theta, t.dropped, t.budget, t.on
	for i := 0; i < len(ranges); i += 2 {
		lo, hi := ranges[i], ranges[i+1]
		for ; on && lo < hi; lo++ {
			a := math.Abs(v[lo])
			if a >= theta {
				break
			}
			if a != 0 {
				if dropped+a > budget {
					on = false
					break
				}
				dropped += a
			}
			v[lo] = 0
		}
		for ; on && hi > lo; hi-- {
			a := math.Abs(v[hi-1])
			if a >= theta {
				break
			}
			if a != 0 {
				if dropped+a > budget {
					on = false
					break
				}
				dropped += a
			}
			v[hi-1] = 0
		}
		if lo < hi {
			out = append(out, lo, hi)
		}
	}
	t.dropped, t.on = dropped, on
	return out
}

// tally is trim for an interval [lo, hi) whose candidates were cut
// already, low of them at its low end and high at its high end, with
// the values vals: it adds them to the dropped mass in the same order,
// under the same rule, and puts the value that would pass the budget
// and every later one back into v, as it does all of them once
// trimming has stopped.
func (t *tally) tally(out []int32, lo, hi, low, high int32, vals []float64) []int32 {
	k := int32(0)
	if t.on {
		dropped, budget := t.dropped, t.budget
		for ; k < low+high; k++ {
			if a := math.Abs(vals[k]); a != 0 {
				if dropped+a > budget {
					t.on = false
					break
				}
				dropped += a
			}
		}
		t.dropped = dropped
	}
	if k < low+high {
		restore(t.v, lo, hi, low, vals, k)
	}
	lo, hi = lo+min(k, low), hi-max(k-low, 0)
	if lo < hi {
		out = append(out, lo, hi)
	}
	return out
}

// restore puts the cut values vals[from:] of interval [lo, hi), low of
// them cut at its low end, back into v.
func restore(v []float64, lo, hi, low int32, vals []float64, from int32) {
	for k := from; k < int32(len(vals)); k++ {
		r := lo + k
		if k >= low {
			r = hi - 1 - (k - low)
		}
		v[r] = vals[k]
	}
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
