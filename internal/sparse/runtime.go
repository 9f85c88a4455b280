package sparse

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"batlife/internal/check"
	"batlife/internal/obs"
)

// PoolMetrics bundles the observability handles a Pool records into.
// The counters are resolved once at pool construction (metric lookup is
// a lock + map read, too slow for the SpMV path) and are nil-safe, so a
// metrics-free pool costs exactly a handful of nil checks per product.
type PoolMetrics struct {
	// SpMV counts every matrix-vector product (each right-hand side of a
	// batched product counts once, and a product split between a caller
	// and its lent Strand once); SpMVFused the fused multiply-accumulate
	// products; SpMVBatched the batched multi-RHS products (one per
	// MulVecMulti call).
	SpMV, SpMVFused, SpMVBatched *obs.Counter
	// VecGets, VecPuts and VecAllocs describe the scratch-vector pool:
	// gets and puts are deterministic per solve; allocs additionally
	// counts gets that found no reusable buffer (sync.Pool eviction makes
	// this one nondeterministic).
	VecGets, VecPuts, VecAllocs *obs.Counter
}

// PoolMetricsFrom resolves the pool metric handles from a registry; a
// nil registry yields all-nil handles (every record is a no-op).
func PoolMetricsFrom(reg *obs.Registry) PoolMetrics {
	if reg == nil {
		return PoolMetrics{}
	}
	return PoolMetrics{
		SpMV:        reg.Counter("sparse_pool_spmv_total"),
		SpMVFused:   reg.Counter("sparse_pool_spmv_fused_total"),
		SpMVBatched: reg.Counter("sparse_pool_spmv_batched_total"),
		VecGets:     reg.Counter("sparse_pool_vec_gets_total"),
		VecPuts:     reg.Counter("sparse_pool_vec_puts_total"),
		VecAllocs:   reg.Counter("sparse_pool_vec_allocs_total"),
	}
}

// Pool recycles iteration-scratch vectors and holds at most one
// persistent worker goroutine, which it lends to one solve at a time as
// that solve's second strand (see Lend). Every product runs on its
// caller, or on the caller and the lent worker when a solve splits its
// window between them. A zero-value Pool is not valid; use NewPool.
//
// The worker starts on the first Lend and then persists, so a solve
// borrows it with a channel send, not a goroutine spawn. A pool of one
// worker never lends, and never starts a goroutine. Close shuts the
// worker down; a closed pool remains usable and lends nothing, so Close
// is always safe to call even with products still in flight.
type Pool struct {
	workers int
	m       PoolMetrics
	vecs    sync.Pool // of *[]float64

	// tasks hands the worker the strand it is lent, quit stops it; both
	// are made when the worker starts.
	tasks    chan *Strand
	quit     chan struct{}
	workerWG sync.WaitGroup
	closed   atomic.Bool

	// askers counts the callers between Lend and Return, lent whether
	// the worker serves strand, the one record it runs. lendMu orders
	// the worker's start and a Lend's send against Close.
	askers atomic.Int32
	lent   atomic.Bool
	strand Strand
	lendMu sync.Mutex
}

// NewPool returns a Pool with the given parallelism; workers <= 0 selects
// runtime.NumCPU(). With 2 or more, the pool may lend its one worker to
// a solve.
func NewPool(workers int) *Pool {
	return NewPoolObs(workers, nil)
}

// NewPoolObs is NewPool with an observability registry; the pool's SpMV
// and scratch-vector traffic is recorded there. A nil registry disables
// recording at no cost.
func NewPoolObs(workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, m: PoolMetricsFrom(reg)}
}

var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// DefaultPool returns the process-wide shared pool (NumCPU workers).
// Callers that own no pool — one-shot transient solves, tests — share
// this instance instead of starting a worker per solve. It is never
// closed; close only pools you created.
func DefaultPool() *Pool { return defaultPool() }

// Close shuts down the pool's worker, if it started, and waits for it
// to exit. A lent worker leaves its Strand between two generations, and
// its caller runs both shares from then on. Close is idempotent and
// safe to race with in-flight products and solves.
func (p *Pool) Close() {
	p.lendMu.Lock()
	wasClosed := p.closed.Swap(true)
	quit := p.quit
	p.lendMu.Unlock()
	if wasClosed {
		p.workerWG.Wait() // a concurrent first Close wins; wait with it
		return
	}
	if quit != nil {
		close(quit)
	}
	p.workerWG.Wait()
	// A strand the worker did not take before it stopped has no worker
	// to run it.
	select {
	case s := <-p.tasks:
		s.leave(0)
	default:
	}
}

// start starts the worker unless it runs already, and reports whether
// the pool is open. Lend calls it under lendMu, so no worker starts
// once Close has marked the pool closed.
func (p *Pool) start() bool {
	if p.closed.Load() {
		return false
	}
	if p.tasks == nil {
		p.tasks = make(chan *Strand, 1)
		p.quit = make(chan struct{})
		p.workerWG.Add(1)
		go p.worker()
	}
	return true
}

// worker is the body of the pool's persistent goroutine: serve each
// lent Strand until its caller gives it back, until the pool closes.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.quit:
			return
		case s := <-p.tasks:
			s.serve()
		}
	}
}

// Operator is a matrix the pool's planned products accept: a *CSR or a
// *Banded. Its segment kernels are unexported, so no other type
// satisfies it.
type Operator interface {
	Rows() int
	Cols() int
	// Kernel names the row kernel the operator's products run: "csr",
	// "bands" or "bands-avx2".
	Kernel() string
	// segments appends the segments of rows [lo, hi) to segs, the
	// pieces a product computes one kernel call each.
	segments(segs []segment, lo, hi int) []segment
	// mulSegment computes dst[r] = m[r,:]·x on the rows of s and, when
	// acc is non-nil, folds acc[r] += w·dst[r].
	mulSegment(s *segment, dst, x, acc []float64, w float64)
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
// operator: the ranges cut into segments. Pool.Plan builds it;
// Pool.MulVecPlan runs it for as many products as the ranges stay the
// same, such as the steps over which the uniformisation loop's active
// window does not move. A Plan keeps the range list it was cut from, so
// Pool.Plan over a list that moved recuts only the ranges that changed.
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

// cut makes pl's segments those of m over ranges and reports whether
// they changed, or an error if ranges is not a valid range list of m:
// an even number of bounds, each range [lo, hi) nonempty, within m's
// rows and above the one before. A run of ranges that pl was already
// cut from keeps its segments, and was checked then, so only its first
// range is checked again, against the range before it. The ranges that
// differ come in hunks: runs of ranges of the new list, and of the kept
// one, between two such runs. A hunk's new ranges are checked and cut
// past the live segments, then moved in place of the old ranges'
// segments, so pl.segs needs room for twice the segments of a list (see
// Pool.Reserve). A new operator changes every range, so the first build
// is one hunk of all of them. On an error pl is left part cut.
func (pl *Plan) cut(m Operator, ranges []int32) (bool, error) {
	if len(ranges)%2 != 0 {
		return false, fmt.Errorf("sparse: plan with %d range bounds: %w", len(ranges), ErrShape)
	}
	if pl.m != m {
		pl.m, pl.ranges, pl.segs = m, pl.ranges[:0], pl.segs[:0]
	}
	old := pl.ranges
	changed := false
	i, j, s := 0, 0, 0 // the next old range, new range, and segment
	for i < len(old) || j < len(ranges) {
		i1, j1 := i, j
		for i1 < len(old) && j1 < len(ranges) && old[i1] == ranges[j1] && old[i1+1] == ranges[j1+1] {
			i1, j1 = i1+2, j1+2
		}
		if j1 > j {
			if err := checkRange(m, ranges, j); err != nil {
				return false, err
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
		changed = true
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
				return false, err
			}
			segs = m.segments(segs, int(ranges[k]), int(ranges[k+1]))
		}
		pl.segs = slices.Replace(segs[:live], s0, s, segs[live:]...)
		s = s0 + len(segs) - live
	}
	if changed {
		pl.ranges = append(pl.ranges[:0], ranges...)
	}
	return changed, nil
}

// GetVec returns a length-n scratch vector, zeroed, reusing a previously
// Put buffer when one of sufficient capacity is available. Callers
// return it with PutVec when done; vectors that escape (results) must be
// allocated normally instead.
func (p *Pool) GetVec(n int) []float64 {
	p.m.VecGets.Add(1)
	if v, ok := p.vecs.Get().(*[]float64); ok && cap(*v) >= n {
		s := (*v)[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	p.m.VecAllocs.Add(1)
	return make([]float64, n)
}

// PutVec returns a scratch vector obtained from GetVec to the pool.
func (p *Pool) PutVec(v []float64) {
	if v == nil {
		return
	}
	p.m.VecPuts.Add(1)
	p.vecs.Put(&v)
}

// MulVec computes dst = m·x on the calling goroutine, as m.MulVec
// does, and counts the product. dst and x must not alias.
func (p *Pool) MulVec(m *CSR, dst, x []float64) error {
	if err := m.MulVec(dst, x); err != nil {
		return err
	}
	p.m.SpMV.Add(1)
	return nil
}

// Plan checks ranges and makes pl the plan of m's products over them,
// reusing pl's storage; pl keeps a copy of ranges, not ranges itself.
// ranges lists ascending, disjoint, row intervals [lo, hi), each
// nonempty, flattened as lo0, hi0, lo1, hi1, …, such as the active
// window of a uniformisation step or one strand's share of it. If pl
// was last built for m, only the ranges that differ from that build's
// are recut (see Plan.cut). A plan's products run on their caller. On
// a bad range list pl is left unbuilt.
func (p *Pool) Plan(pl *Plan, m Operator, ranges []int32) error {
	if _, err := pl.cut(m, ranges); err != nil {
		pl.m = nil
		return err
	}
	return nil
}

// Reserve makes room in pl for the plan of m's products over up to
// ranges row ranges, so that Plan builds or rebuilds any such plan
// without allocating. A segment ends where its range does, and a
// Banded's also at every cut and every bandTile rows; a rebuild cuts a
// hunk's segments past the live ones (see Plan.cut), so the plan holds
// room for two lists of them.
func (p *Pool) Reserve(pl *Plan, m Operator, ranges int) {
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

// MulVecPlan computes dst[r] = m[r,:]·x for every row r of the plan's
// ranges, m its operator, and leaves every other row of dst untouched.
// When acc is non-nil it also folds acc[r] += w·dst[r] in the same pass,
// bit-identical to an element-wise fold after the product; a w of 0
// folds nothing. dst, x and acc must not alias; every computed row is
// bit-identical to MulVec's on the CSR of the same entries.
func (p *Pool) MulVecPlan(pl *Plan, dst, x, acc []float64, w float64) error {
	if err := mulVecPlan(pl, dst, x, acc, w); err != nil {
		return err
	}
	p.m.SpMV.Add(1)
	if acc != nil {
		p.m.SpMVFused.Add(1)
	}
	return nil
}

// MulVecPlan is Pool.MulVecPlan for the lent worker's share of a
// product whose caller runs the other share with Pool.MulVecPlan: the
// product is counted once, there.
func (s *Strand) MulVecPlan(pl *Plan, dst, x, acc []float64, w float64) error {
	return mulVecPlan(pl, dst, x, acc, w)
}

// mulVecPlan runs pl's product on the calling goroutine.
func mulVecPlan(pl *Plan, dst, x, acc []float64, w float64) error {
	m := pl.m
	if m == nil {
		return fmt.Errorf("sparse: MulVecPlan on an unbuilt plan: %w", ErrShape)
	}
	if len(x) != m.Cols() || len(dst) != m.Rows() || (acc != nil && len(acc) != m.Rows()) {
		return fmt.Errorf("sparse: MulVecPlan %dx%d with |x|=%d |dst|=%d |acc|=%d: %w",
			m.Rows(), m.Cols(), len(x), len(dst), len(acc), ErrShape)
	}
	if w == 0 {
		acc = nil
	}
	for i := range pl.segs {
		m.mulSegment(&pl.segs[i], dst, x, acc, w)
	}
	if check.Enabled {
		for _, s := range pl.segs {
			check.FiniteVec("sparse.Pool.MulVecPlan", dst[s.lo:s.hi])
		}
	}
	return nil
}

// MulVecMulti computes dsts[k] = m·xs[k] for every right-hand side on
// the calling goroutine, as m.MulVecMulti does, and counts the batch
// and its products. All slices must be distinct and non-aliasing; each
// dsts[k] is bit-identical to a solo MulVec(dsts[k], xs[k]).
func (p *Pool) MulVecMulti(m *CSR, dsts, xs [][]float64) error {
	if err := m.MulVecMulti(dsts, xs); err != nil || len(xs) == 0 {
		return err
	}
	p.m.SpMV.Add(int64(len(xs)))
	p.m.SpMVBatched.Add(1)
	return nil
}
