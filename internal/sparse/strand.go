package sparse

import (
	"runtime"
	"sync/atomic"
)

// Strand is a pool worker lent to one caller for the length of a solve:
// a second goroutine that runs the caller's share function once for
// every generation the caller publishes, while the caller runs its own
// share. The two meet at one barrier per generation (Step, then Wait).
// A pool lends one worker at a time, and only to a caller that is the
// only one asking: once a second caller asks, the holder gives its
// worker back at its next step (see Wanted and Give), so concurrent
// solves never run more busy strands than there are workers.
//
// A Strand is used by its caller's goroutine only; Pool.Lend returns
// one.
type Strand struct {
	p *Pool
	// held reports whether the caller holds the worker: false for an ask
	// the pool refused, and after Give or Return.
	held bool
	// share is the worker's share of a generation, set before the task
	// that hands the strand to a worker is sent; panicked holds what a
	// share panicked with, for Wait to raise on the caller.
	share    func()
	panicked any
	// step is the generation the caller published, with stopBit set to
	// send the worker back; done is the last generation the worker
	// finished, with goneBit set once the worker has left because the
	// pool closed.
	step, done atomic.Uint32
	// worker parks the lent worker between generations, user the caller
	// at the barrier.
	worker, user parker
}

const (
	stopBit = 1 << 31
	goneBit = 1 << 31
)

// Lend asks for a pool worker to run share as the second strand of one
// solve. It never blocks. It returns nil when the pool has no worker to
// lend: fewer than two workers, fewer than two usable CPUs
// (runtime.GOMAXPROCS), or a closed pool. Otherwise the caller must call
// Return once, when its solve ends, whatever Held reports: an ask the
// pool refused because another solve holds or asked for the worker
// still counts as asking until then, so the holder gives its worker
// back.
func (p *Pool) Lend(share func()) *Strand {
	if p.workers < 2 || runtime.GOMAXPROCS(0) < 2 || p.closed.Load() {
		return nil
	}
	if p.askers.Add(1) > 1 || !p.lent.CompareAndSwap(false, true) {
		return &Strand{p: p}
	}
	s := &p.strand
	if s.p == nil {
		s.p = p
		s.worker.wake = make(chan struct{}, 1)
		s.user.wake = make(chan struct{}, 1)
	}
	s.held, s.share, s.panicked = true, share, nil
	s.step.Store(0)
	s.done.Store(0)
	// Close drains the task channel of strands no worker took once its
	// workers have stopped; the lock orders this send before that drain
	// or after Close has marked the pool closed.
	p.lendMu.Lock()
	sent := false
	if p.start() {
		select {
		case p.tasks <- task{s: s}:
			sent = true
		default: // the channel is full of announcements; lend nothing
		}
	}
	p.lendMu.Unlock()
	if !sent {
		s.held = false
		p.lent.Store(false)
	}
	return s
}

// Held reports whether the caller holds the lent worker.
func (s *Strand) Held() bool { return s.held }

// Wanted reports whether another caller has asked the pool for a worker
// while this one holds it; the holder should Give it back.
func (s *Strand) Wanted() bool { return s.held && s.p.askers.Load() > 1 }

// Step publishes generation gen, one above the last: the worker runs
// share once for it. The caller's writes before Step are visible to
// share, and share's writes to the caller after Wait.
func (s *Strand) Step(gen uint32) {
	s.step.Store(gen)
	s.worker.signal()
}

// Wait returns once the worker has finished generation gen, and panics
// with the value its share panicked with, if it did. It reports false
// when the worker left before running gen because the pool closed; the
// caller must then run that generation's share itself, and no longer
// holds the worker.
func (s *Strand) Wait(gen uint32) bool {
	d := s.user.await(&s.done, gen, nil)
	if p := s.panicked; p != nil {
		s.panicked = nil
		panic(p)
	}
	if d&goneBit != 0 {
		s.held = false
		return d&^goneBit >= gen
	}
	return true
}

// Give sends the worker back to the pool once it has finished the
// generation in flight, if any; the caller keeps asking until Return.
func (s *Strand) Give() {
	if !s.held {
		return
	}
	s.held = false
	gen := s.step.Load() + 1
	s.step.Store(gen | stopBit)
	s.worker.signal()
	s.user.await(&s.done, gen, nil)
	s.share = nil // it holds the caller's solve
	s.p.lent.Store(false)
}

// Return ends the ask, giving the worker back first if the caller
// still holds it.
func (s *Strand) Return() {
	s.Give()
	s.p.askers.Add(-1)
}

// serve is the lent worker's loop: run share for each generation the
// caller publishes, until the caller sends the worker back or the pool
// closes. A caller that gives the worker back without waiting for the
// generation in flight (a panic between Step and Wait) waits for the
// generation that Give published, so the worker reports that one done.
// Once the pool is closing the worker runs no further generation, even
// while its caller keeps stepping.
func (s *Strand) serve() {
	for gen := uint32(1); ; gen++ {
		st := s.worker.await(&s.step, gen, s.p.quit)
		switch {
		case st&stopBit != 0:
			s.done.Store(st &^ stopBit)
			s.user.signal()
			return
		case st < gen || s.p.closed.Load():
			s.leave(gen - 1)
			return
		}
		s.run()
		s.done.Store(gen)
		s.user.signal()
	}
}

// run runs share once; a panic in it goes to the caller, whose Wait
// raises it, and the worker serves on until the caller's deferred
// Return sends it back.
func (s *Strand) run() {
	defer func() {
		if p := recover(); p != nil {
			s.panicked = p
		}
	}()
	s.share()
}

// leave marks the worker gone after generation last, because the pool
// closed, and wakes the caller.
func (s *Strand) leave(last uint32) {
	s.done.Store(last | goneBit)
	s.user.signal()
}

// maxSpin is how many times a strand polls before it parks: tens of
// microseconds, well above the serial remainder a caller runs between
// two generations, so a worker parks between solves and while its
// caller runs one strand, not between the steps of a two-strand solve.
const maxSpin = 1 << 16

// parker makes one goroutine wait for an atomic generation to reach a
// target: it polls up to maxSpin times, yielding its CPU every 8,192
// polls, then sleeps on wake until the other side signals.
type parker struct {
	sleeping atomic.Bool
	wake     chan struct{} // capacity 1: the one pending signal
}

// await returns v's value once its low 31 bits reach gen or its high bit
// is set, or, when stop closes first, the value v holds then.
func (k *parker) await(v *atomic.Uint32, gen uint32, stop <-chan struct{}) uint32 {
	for {
		for spin := 1; spin <= maxSpin; spin++ {
			if x := v.Load(); x&^stopBit >= gen || x&stopBit != 0 {
				return x
			}
			if spin%8192 == 0 {
				runtime.Gosched()
			}
		}
		k.sleeping.Store(true)
		if x := v.Load(); x&^stopBit >= gen || x&stopBit != 0 {
			k.claim()
			return x
		}
		select {
		case <-k.wake:
		case <-stop:
			k.claim()
			return v.Load()
		}
	}
}

// claim clears the sleeping flag before await returns. If the other
// side has cleared it already, its signal is on the way, and claim
// consumes it so that it cannot wake a later wait early.
func (k *parker) claim() {
	if !k.sleeping.CompareAndSwap(true, false) {
		<-k.wake
	}
}

// signal wakes the goroutine if it sleeps in await.
func (k *parker) signal() {
	if k.sleeping.Load() && k.sleeping.CompareAndSwap(true, false) {
		k.wake <- struct{}{}
	}
}
