package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"

	"batlife/internal/obs"
)

// poolMetrics holds the counters of a pool's scratch-vector traffic,
// resolved once at pool construction (metric lookup is a lock + map
// read). They are nil-safe, so a metrics-free pool costs a nil check per
// get and put. Gets and puts are deterministic per solve; allocs counts
// the gets that found no reusable buffer, which sync.Pool eviction makes
// nondeterministic.
type poolMetrics struct {
	gets, puts, allocs *obs.Counter
}

// poolMetricsFrom resolves the pool's counters from a registry; a nil
// registry yields nil counters, whose records are no-ops.
func poolMetricsFrom(reg *obs.Registry) poolMetrics {
	if reg == nil {
		return poolMetrics{}
	}
	return poolMetrics{
		gets:   reg.Counter("sparse_pool_vec_gets_total"),
		puts:   reg.Counter("sparse_pool_vec_puts_total"),
		allocs: reg.Counter("sparse_pool_vec_allocs_total"),
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
	m       poolMetrics
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

// NewPoolObs is NewPool with an observability registry; the pool's
// scratch-vector traffic is recorded there. A nil registry disables
// recording at no cost.
func NewPoolObs(workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, m: poolMetricsFrom(reg)}
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

// GetVec returns a length-n scratch vector, zeroed, reusing a previously
// Put buffer when one of sufficient capacity is available. Callers
// return it with PutVec when done; vectors that escape (results) must be
// allocated normally instead.
func (p *Pool) GetVec(n int) []float64 {
	p.m.gets.Add(1)
	if v, ok := p.vecs.Get().(*[]float64); ok && cap(*v) >= n {
		s := (*v)[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	p.m.allocs.Add(1)
	return make([]float64, n)
}

// PutVec returns a scratch vector obtained from GetVec to the pool.
func (p *Pool) PutVec(v []float64) {
	if v == nil {
		return
	}
	p.m.puts.Add(1)
	p.vecs.Put(&v)
}

// MulVec computes dst = m·x on the calling goroutine, as m.MulVec
// does. dst and x must not alias.
//
//numlint:ignore testonly bench/ times it until ROADMAP items 7 and 8 retarget the layer and delete it
func (p *Pool) MulVec(m *CSR, dst, x []float64) error {
	return m.MulVec(dst, x)
}

// MulVecMulti computes dsts[k] = m·xs[k] for every right-hand side on
// the calling goroutine, as m.MulVecMulti does. All slices must be
// distinct and non-aliasing; each dsts[k] is bit-identical to a solo
// MulVec(dsts[k], xs[k]).
//
//numlint:ignore testonly bench/ times it until ROADMAP items 7 and 8 retarget the layer and delete it
func (p *Pool) MulVecMulti(m *CSR, dsts, xs [][]float64) error {
	return m.MulVecMulti(dsts, xs)
}
