package sparse

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// and its lent Strand once); SpMVParallel the whole-matrix products
	// dispatched across worker goroutines (large matrices only); SpMVFused the
	// fused multiply-accumulate products; SpMVBatched the batched
	// multi-RHS dispatches (one per MulVecMulti call).
	SpMV, SpMVParallel, SpMVFused, SpMVBatched *obs.Counter
	// VecGets, VecPuts and VecAllocs describe the scratch-vector pool:
	// gets and puts are deterministic per solve; allocs additionally
	// counts gets that found no reusable buffer (sync.Pool eviction makes
	// this one nondeterministic).
	VecGets, VecPuts, VecAllocs *obs.Counter
	// WorkersBusy gauges how many persistent workers are currently
	// executing row chunks of whole-matrix products; a lent Strand is
	// not counted.
	WorkersBusy *obs.Gauge
	// TaskWait observes, per dispatched product, the seconds between
	// enqueueing the task and the first worker picking it up.
	TaskWait *obs.Histogram
	// PartitionImbalance gauges the nnz-balance quality of the most
	// recently used row partition: max chunk weight over ideal chunk
	// weight (1.0 is perfectly balanced).
	PartitionImbalance *obs.Gauge
}

// PoolMetricsFrom resolves the pool metric handles from a registry; a
// nil registry yields all-nil handles (every record is a no-op).
func PoolMetricsFrom(reg *obs.Registry) PoolMetrics {
	if reg == nil {
		return PoolMetrics{}
	}
	return PoolMetrics{
		SpMV:               reg.Counter("sparse_pool_spmv_total"),
		SpMVParallel:       reg.Counter("sparse_pool_spmv_parallel_total"),
		SpMVFused:          reg.Counter("sparse_pool_spmv_fused_total"),
		SpMVBatched:        reg.Counter("sparse_pool_spmv_batched_total"),
		VecGets:            reg.Counter("sparse_pool_vec_gets_total"),
		VecPuts:            reg.Counter("sparse_pool_vec_puts_total"),
		VecAllocs:          reg.Counter("sparse_pool_vec_allocs_total"),
		WorkersBusy:        reg.Gauge("sparse_pool_workers_busy"),
		TaskWait:           reg.Histogram("sparse_pool_task_wait_seconds"),
		PartitionImbalance: reg.Gauge("sparse_pool_partition_imbalance"),
	}
}

// parallelMinWeight is the whole-matrix product size below which
// MulVec and MulVecMulti stay on the calling goroutine, in partition
// weight (nnz + rows, once per right-hand side): the fork cost of a
// parallel dispatch only pays for itself once a product is a few
// hundred microseconds of work. Planned products always run on their
// caller; a solve splits its window between itself and a lent Strand
// instead. Paired runs behind the value are in docs/PERFORMANCE.md.
const parallelMinWeight = 65536

// Pool executes parallel matrix-vector products over a set of
// long-lived worker goroutines and recycles iteration-scratch vectors.
// A zero-value Pool is not valid; use NewPool.
//
// Workers are started lazily on the first product large enough to
// parallelise and then persist — a product costs channel sends, not
// goroutine spawns. Close shuts the workers down; a closed pool remains
// usable but runs every product serially, so Close is always safe to
// call even with products still in flight (they complete on the calling
// goroutine). Pools that never see a large product never start a
// goroutine.
type Pool struct {
	workers int
	m       PoolMetrics
	vecs    sync.Pool // of *[]float64

	// jobs is the free list of dispatch records. A parallel product
	// borrows one and returns it, so steady-state products allocate
	// nothing; the list grows to the number of products ever in flight
	// at once.
	jobsMu sync.Mutex
	jobs   []*spmvJob

	startOnce sync.Once
	tasks     chan task
	quit      chan struct{}
	workerWG  sync.WaitGroup
	closed    atomic.Bool

	// askers counts the callers between Lend and Return, lent whether a
	// worker serves strand, the one record a lent worker runs. lendMu
	// orders a Lend's task send against Close.
	askers atomic.Int32
	lent   atomic.Bool
	strand Strand
	lendMu sync.Mutex
}

// NewPool returns a Pool with the given parallelism; workers <= 0 selects
// runtime.NumCPU().
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
// Callers that need SpMV parallelism but own no pool — one-shot
// transient solves, tests — share this
// instance instead of spawning worker sets per solve. It is never
// closed; close only pools you created.
func DefaultPool() *Pool { return defaultPool() }

// Close shuts down the pool's persistent workers and waits for them to
// exit. Products already dispatched complete (their calling goroutines
// finish any chunks the workers abandoned), and later products run
// serially on the caller. A lent worker leaves its Strand between two
// generations, and its caller runs both shares from then on. Close is
// idempotent and safe to race with in-flight products.
func (p *Pool) Close() {
	p.lendMu.Lock()
	wasClosed := p.closed.Swap(true)
	p.lendMu.Unlock()
	if wasClosed {
		p.workerWG.Wait() // a concurrent first Close wins; wait with it
		return
	}
	// Consume the start slot so a racing product cannot spawn workers
	// after the quit broadcast; if start already ran this is a no-op and
	// quit is non-nil.
	p.startOnce.Do(func() {})
	if p.quit != nil {
		close(p.quit)
	}
	p.workerWG.Wait()
	// A strand no worker took before they stopped has no worker to run it.
	for {
		select {
		case t := <-p.tasks:
			if t.s != nil {
				t.s.leave(0)
			}
		default:
			return
		}
	}
}

// start lazily spawns the worker goroutines. It reports whether the
// runtime is usable (false once the pool is closed).
func (p *Pool) start() bool {
	if p.closed.Load() {
		return false
	}
	p.startOnce.Do(func() {
		// The dispatching goroutine always participates in its own
		// product, so workers-1 persistent goroutines give `workers`
		// concurrent strands per product.
		n := p.workers - 1
		// Room for the announcements of two products per worker: enough
		// that concurrent callers rarely find it full, and a full channel
		// only keeps a product's chunks on its caller.
		p.tasks = make(chan task, 2*p.workers)
		p.quit = make(chan struct{})
		p.workerWG.Add(n)
		for i := 0; i < n; i++ {
			go p.worker()
		}
	})
	// Close may have raced the start; its quit broadcast is ordered
	// after the Do above, so the workers (if any) are already stopping
	// and the caller must run the product itself.
	return !p.closed.Load()
}

// worker is the body of one persistent pool goroutine: pick up an
// announced product, drain row chunks from its cursor, repeat; or serve
// a lent Strand until its caller gives it back.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.quit:
			return
		case t := <-p.tasks:
			if t.s != nil {
				t.s.serve()
				continue
			}
			p.m.WorkersBusy.Add(1)
			t.j.run(t.gen, &p.m)
			p.m.WorkersBusy.Add(-1)
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
	// weight is the partition weight of rows [lo, hi), about the work
	// of computing them.
	weight(lo, hi int32) int64
}

// segment is rows [lo, hi) of one product, computed in one kernel call.
// A CSR reads only the rows. For a Banded (see Banded.segments) the
// rows lie in one tile and bands [k0, k1) have their column in the
// matrix on every row; for each such band k, v[k−k0] is where the
// band's storage holds row lo's value and x[k−k0] = lo + offs[k] the
// entry of x that value multiplies. Both advance by one per row, so any
// rows [a, b) of a segment form a segment too (see part).
type segment struct {
	lo, hi int32
	k0, k1 uint8
	v, x   [MaxBands]int32
}

// part returns rows [a, b) of s, which must lie within [s.lo, s.hi].
func (s *segment) part(a, b int32) segment {
	p := *s
	p.lo, p.hi = a, b
	for k := range int(s.k1 - s.k0) {
		p.v[k] += a - s.lo
		p.x[k] += a - s.lo
	}
	return p
}

// chunk is one share of a parallel plan's rows: the part head, then
// segments [from, to), then the part tail. A chunk's ends may fall
// inside a segment, and the parts are the rows of it the chunk runs;
// a part is empty (lo = hi) where an end falls between two segments.
type chunk struct {
	head, tail segment
	from, to   int32
}

// Plan is the schedule of products over one list of row ranges of one
// operator: the ranges cut into segments and, for a whole-matrix product
// that fans out over the pool's workers, the segments' partition into
// chunks of near-equal weight. Pool.Plan builds it; Pool.MulVecPlan
// runs it for as many products as the ranges stay the same, such as the
// steps over which the uniformisation loop's active window does not
// move. A Plan keeps the range list it was cut from, so Pool.Plan over
// a list that moved recuts only the ranges that changed. A Plan holds
// no vector, so products on any vectors of the right shape may share
// it, concurrently too. The zero Plan is unbuilt.
type Plan struct {
	m Operator
	// ranges is the range list the segments were cut from, and total
	// its weight.
	ranges []int32
	total  int64
	segs   []segment
	// ways is the chunk count the partition was drawn for, 0 for a plan
	// of Pool.Plan, whose products run over segs on their caller.
	// imbalance is the heaviest chunk's weight over the ideal.
	ways      int
	chunks    []chunk
	imbalance float64
}

// kernel describes what one product computes on each segment: dst = m·x
// (folded into acc with weight w when acc is non-nil), or with xs set,
// the batched dsts[k] = m·xs[k] of a *CSR.
type kernel struct {
	m        Operator
	x, dst   []float64
	acc      []float64
	w        float64
	xs, dsts [][]float64
}

// run executes the kernel over one segment.
//
//numlint:hotpath
func (k *kernel) run(s *segment) {
	if k.xs != nil {
		k.m.(*CSR).mulMultiRows(k.dsts, k.xs, int(s.lo), int(s.hi))
		return
	}
	k.m.mulSegment(s, k.dst, k.x, k.acc, k.w)
}

// whole executes a whole-matrix kernel, whose operator is a *CSR, over
// rows [lo, hi) on the calling goroutine.
func (k *kernel) whole(lo, hi int) {
	m := k.m.(*CSR)
	if k.xs != nil {
		m.mulMultiRows(k.dsts, k.xs, lo, hi)
		return
	}
	m.mulRows(k.dst, k.x, lo, hi)
}

// task announces generation gen of a job to a worker, or hands it a
// lent Strand. It travels by value, so announcing allocates nothing.
type task struct {
	j   *spmvJob
	gen uint32
	s   *Strand
}

// spmvJob is the reusable dispatch record of one parallel product: the
// kernel, the plan whose chunks it runs, and a work-stealing cursor.
// Workers and the dispatching caller all drain the cursor, so a
// straggling chunk never serialises the product and a closed pool
// degrades to the caller doing every chunk itself.
//
// A job is reused product after product, while a worker may still hold
// a stale announcement of an earlier one. The cursor therefore carries
// the product's generation: state packs gen<<32 | chunks<<16 | next. A
// participant touches the other fields only after a compare-and-swap
// has claimed a chunk of its own generation, and the dispatcher
// rewrites them only once every chunk of the previous generation is
// done — so a stale worker sees a foreign generation and leaves.
type spmvJob struct {
	state   atomic.Uint64
	pending sync.WaitGroup // one count per chunk
	gen     uint32         // dispatcher-owned

	k  kernel
	pl *Plan
	// own is the plan of a whole-matrix product, recut when the matrix
	// changes.
	own Plan

	enqueuedNanos int64 // 0 when task-wait recording is off
	waitObserved  atomic.Bool
}

// maxChunks bounds the chunk count the packed cursor can address.
const maxChunks = 1<<16 - 1

// run claims and executes chunks of generation gen until none remain
// or the job has moved on to a later product. m, when non-nil, receives
// the task-wait observation (workers only).
func (j *spmvJob) run(gen uint32, m *PoolMetrics) {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen {
			return
		}
		next, chunks := uint16(s), uint16(s>>16)
		if next >= chunks {
			return
		}
		if !j.state.CompareAndSwap(s, s+1) {
			continue
		}
		if m != nil {
			j.observeWait(m)
		}
		j.runChunk(int(next))
		j.pending.Done()
	}
}

// runChunk runs chunk c of the job's plan.
func (j *spmvJob) runChunk(c int) {
	ch := &j.pl.chunks[c]
	if ch.head.lo < ch.head.hi {
		j.k.run(&ch.head)
	}
	for i := ch.from; i < ch.to; i++ {
		j.k.run(&j.pl.segs[i])
	}
	if ch.tail.lo < ch.tail.hi {
		j.k.run(&ch.tail)
	}
}

// observeWait records the enqueue-to-pickup latency once per product.
func (j *spmvJob) observeWait(m *PoolMetrics) {
	if j.enqueuedNanos == 0 || j.waitObserved.Swap(true) {
		return
	}
	m.TaskWait.Observe(float64(time.Now().UnixNano()-j.enqueuedNanos) / 1e9)
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
		pl.m, pl.ranges, pl.segs, pl.total = m, pl.ranges[:0], pl.segs[:0], 0
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
		i0, j0, s0 := i, j, s
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
		for k := i0; k < i; k += 2 {
			pl.total -= m.weight(old[k], old[k+1])
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
			pl.total += m.weight(ranges[k], ranges[k+1])
		}
		pl.segs = slices.Replace(segs[:live], s0, s, segs[live:]...)
		s = s0 + len(segs) - live
	}
	if changed {
		pl.ranges = append(pl.ranges[:0], ranges...)
	}
	return changed, nil
}

// partition splits pl's rows into at most ways chunks of near-equal
// weight (nnz + rows for a CSR, rows·(bands+1) for a Banded), cutting
// inside a segment where a boundary falls, and records the heaviest
// chunk's weight over the ideal. It reads only the segments' rows and
// offsets, so it never recuts a segment. A cut never splits a row, so
// every parallel product stays bit-identical to the serial kernel. One
// way runs every segment on the caller and needs no chunks.
func (pl *Plan) partition(ways int) {
	pl.ways, pl.imbalance = ways, 1
	pl.chunks = pl.chunks[:0]
	if ways == 1 || len(pl.segs) == 0 {
		return
	}
	weight := pl.m.weight
	ideal := float64(pl.total) / float64(ways)
	var acc, begun, maxChunk int64
	cut := 1 // the current chunk ends once acc reaches cut*ideal
	// The current chunk starts at row row of segment seg.
	seg, row := int32(0), pl.segs[0].lo
	endChunk := func(i, a int32) {
		pl.chunks = append(pl.chunks, pl.chunkTo(seg, row, i, a))
		maxChunk = max(maxChunk, acc-begun)
		begun = acc
		seg, row = i, a
		if a == pl.segs[i].hi && int(i)+1 < len(pl.segs) {
			seg, row = i+1, pl.segs[i+1].lo
		}
	}
	for i := range pl.segs {
		lo, hi := pl.segs[i].lo, pl.segs[i].hi
		if w := weight(lo, hi); cut >= ways || float64(acc+w) < float64(cut)*ideal {
			acc += w // no chunk ends in this segment
			continue
		}
		for cut < ways {
			target := float64(cut) * ideal
			if float64(acc+weight(lo, hi)) < target {
				break
			}
			// The smallest r in (lo, hi] whose prefix reaches the target.
			a, b := lo+1, hi
			for a < b {
				mid := a + (b-a)/2
				if float64(acc+weight(lo, mid)) >= target {
					b = mid
				} else {
					a = mid + 1
				}
			}
			acc += weight(lo, a)
			endChunk(int32(i), a)
			for cut < ways && float64(acc) >= float64(cut)*ideal {
				cut++
			}
			lo = a
		}
		acc += weight(lo, hi)
	}
	if last := int32(len(pl.segs) - 1); seg < last || row < pl.segs[last].hi {
		endChunk(last, pl.segs[last].hi)
	}
	pl.imbalance = float64(maxChunk) / ideal
}

// chunkTo returns the chunk of rows from row r of segment s up to row
// a of segment i, r < a when s = i: whole segments where it covers them,
// and a part where it starts or ends inside one.
func (pl *Plan) chunkTo(s, r, i, a int32) chunk {
	c := chunk{from: s, to: i}
	if first := &pl.segs[s]; r > first.lo {
		if s == i {
			c.head = first.part(r, a)
			return c
		}
		c.head, c.from = first.part(r, first.hi), s+1
	}
	if last := &pl.segs[i]; a == last.hi {
		c.to = i + 1
	} else {
		c.tail = last.part(last.lo, a)
	}
	return c
}

// getJob borrows a dispatch record from the free list.
func (p *Pool) getJob() *spmvJob {
	p.jobsMu.Lock()
	defer p.jobsMu.Unlock()
	if n := len(p.jobs); n > 0 {
		j := p.jobs[n-1]
		p.jobs = p.jobs[:n-1]
		return j
	}
	return new(spmvJob)
}

// putJob returns a finished dispatch record to the free list, dropping
// its references to the product's vectors.
func (p *Pool) putJob(j *spmvJob) {
	j.k, j.pl = kernel{}, nil
	p.jobsMu.Lock()
	p.jobs = append(p.jobs, j)
	p.jobsMu.Unlock()
}

// whole runs a whole-matrix kernel over every row of its *CSR: fanned
// out over the workers when the rows carry enough work, once per
// right-hand side, on the calling goroutine otherwise.
func (p *Pool) whole(k kernel) {
	m := k.m.(*CSR)
	work := m.weight(0, int32(m.rows))
	if k.xs != nil {
		work *= int64(len(k.xs)) // one sweep of the rows per right-hand side
	}
	if p.workers == 1 || p.closed.Load() || work < parallelMinWeight {
		k.whole(0, m.rows)
		return
	}
	p.m.SpMVParallel.Add(1)
	j := p.getJob()
	all := [2]int32{0, int32(m.rows)}
	// A matrix with rows to fan out makes {0, rows} a valid range list.
	changed, err := j.own.cut(m, all[:])
	if err != nil {
		panic(err)
	}
	if ways := min(p.workers, maxChunks); changed || j.own.ways != ways {
		j.own.partition(ways)
	}
	p.m.PartitionImbalance.Set(j.own.imbalance)
	j.k, j.pl = k, &j.own
	p.dispatch(j)
	p.putJob(j)
}

// dispatch publishes the job's next generation, announces it to the
// persistent workers and participates until every chunk is done. It
// never blocks on the task channel: if the channel is full (or the
// workers are gone), the caller simply drains the cursor itself, so
// dispatch is deadlock-free even when it races Close.
func (p *Pool) dispatch(j *spmvJob) {
	chunks := len(j.pl.chunks)
	j.pending.Add(chunks)
	j.gen++
	j.waitObserved.Store(false)
	j.enqueuedNanos = 0
	started := p.start()
	if started && p.m.TaskWait != nil {
		j.enqueuedNanos = time.Now().UnixNano()
	}
	// Every field above is written before this store; a participant
	// reads them only after claiming a chunk of this generation.
	j.state.Store(uint64(j.gen)<<32 | uint64(chunks)<<16)
	if started {
		// The caller takes chunks too, so at most chunks-1 workers can
		// contribute.
		announce := min(chunks-1, p.workers-1)
	announcing:
		for i := 0; i < announce; i++ {
			select {
			case p.tasks <- task{j: j, gen: j.gen}:
			default:
				break announcing // workers saturated; keep the rest local
			}
		}
	}
	j.run(j.gen, nil)
	j.pending.Wait()
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

// MulVec computes dst = m·x with rows partitioned across the pool's
// workers. dst and x must not alias.
func (p *Pool) MulVec(m *CSR, dst, x []float64) error {
	if len(x) != m.cols || len(dst) != m.rows {
		return fmt.Errorf("sparse: parallel MulVec %dx%d with |x|=%d |dst|=%d: %w",
			m.rows, m.cols, len(x), len(dst), ErrShape)
	}
	p.m.SpMV.Add(1)
	p.whole(kernel{m: m, x: x, dst: dst})
	check.FiniteVec("sparse.Pool.MulVec", dst)
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
	k := kernel{m: m, x: x, dst: dst, acc: acc, w: w}
	for i := range pl.segs {
		k.run(&pl.segs[i])
	}
	if check.Enabled {
		for _, s := range pl.segs {
			check.FiniteVec("sparse.Pool.MulVecPlan", dst[s.lo:s.hi])
		}
	}
	return nil
}

// MulVecMulti computes dsts[k] = m·xs[k] for every right-hand side in
// one traversal of the matrix: row data is loaded once per row and
// reused across all k, so a batch of B products costs roughly one
// traversal plus B accumulation streams instead of B full traversals.
// All slices must be distinct and non-aliasing; each dsts[k] is
// bit-identical to a solo MulVec(dsts[k], xs[k]).
func (p *Pool) MulVecMulti(m *CSR, dsts, xs [][]float64) error {
	if len(dsts) != len(xs) {
		return fmt.Errorf("sparse: MulVecMulti with %d dsts for %d xs: %w", len(dsts), len(xs), ErrShape)
	}
	if len(xs) == 0 {
		return nil
	}
	for k := range xs {
		if len(xs[k]) != m.cols || len(dsts[k]) != m.rows {
			return fmt.Errorf("sparse: MulVecMulti %dx%d with |xs[%d]|=%d |dsts[%d]|=%d: %w",
				m.rows, m.cols, k, len(xs[k]), k, len(dsts[k]), ErrShape)
		}
	}
	p.m.SpMV.Add(int64(len(xs)))
	p.m.SpMVBatched.Add(1)
	p.whole(kernel{m: m, xs: xs, dsts: dsts})
	for k := range dsts {
		check.FiniteVec("sparse.Pool.MulVecMulti", dsts[k])
	}
	return nil
}
