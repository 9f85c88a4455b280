package sparse

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// BenchmarkTwoStrandWindow times one windowed product on one goroutine
// and split between the caller and a lent Strand that meet at Step and
// Wait, as a two-strand uniformisation step runs it. The windows have
// the shape of the loop's: Fig. 10's at Δ = 2 mAh (253 intervals, 44.3k
// of 113,703 rows, 6 bands), Fig. 8's at Δ = 50 (91 intervals, 4.1k of
// 10,010 rows, 5 bands) and at Δ = 100 (46 intervals, 1k of 2,576
// rows). The split halves the window's rows. The two-strand runs skip
// where the pool lends no worker (one usable CPU).
func BenchmarkTwoStrandWindow(b *testing.B) {
	for _, shape := range []struct {
		name       string
		n, iv, len int
		offs       []int
	}{
		{"fig10", 113703, 253, 175, fig10Offsets},
		{"fig8", 10010, 91, 45, fig8Offsets},
		{"fig8-1k", 2576, 46, 22, fig8Offsets},
	} {
		rng := rand.New(rand.NewSource(12))
		bm, _ := bandedPair(b, rng, shape.n, shape.offs)
		x, dst := randomVec(rng, shape.n), make([]float64, shape.n)
		var ranges []int32
		gap := shape.n / shape.iv
		for k := 0; k < shape.iv; k++ {
			lo := int32(k*gap + (gap-shape.len)/2)
			ranges = append(ranges, lo, lo+int32(shape.len))
		}
		half := 2 * (shape.iv / 2)
		var all, lo, hi Plan
		for _, p := range []struct {
			pl     *Plan
			ranges []int32
		}{{&all, ranges}, {&lo, ranges[:half]}, {&hi, ranges[half:]}} {
			if err := p.pl.Build(bm, p.ranges); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(shape.name+"/one", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := all.MulVec(dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		pool := NewPool(2)
		b.Run(shape.name+"/two", func(b *testing.B) {
			s := pool.Lend(func() {
				if err := hi.MulVec(dst, x); err != nil {
					panic(err)
				}
			})
			if s == nil || !s.Held() {
				if s != nil {
					s.Return()
				}
				b.Skip("the pool lends no worker here")
			}
			defer s.Return()
			for i := 0; i < b.N; i++ {
				gen := uint32(i + 1)
				s.Step(gen)
				if err := lo.MulVec(dst, x); err != nil {
					b.Fatal(err)
				}
				s.Wait(gen)
			}
		})
		pool.Close()
	}
}

// TestLendOneAtATime: a pool lends its worker to one asker at a time,
// never to a second while the first asks, and asks the holder for it
// back; a one-worker pool, a closed pool and a single usable CPU lend
// nothing.
func TestLendOneAtATime(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	if s := NewPool(1).Lend(func() {}); s != nil {
		t.Fatal("a one-worker pool lent a worker")
	}
	pool := NewPool(2)
	a := pool.Lend(func() {})
	if a == nil || !a.Held() || a.Wanted() {
		t.Fatalf("the first ask of an idle pool: %+v", a)
	}
	b := pool.Lend(func() {})
	if b == nil || b.Held() {
		t.Fatalf("a second ask got the worker: %+v", b)
	}
	if !a.Wanted() {
		t.Fatal("the holder is not asked to give its worker back")
	}
	a.Give()
	if a.Held() || a.Wanted() {
		t.Fatal("a holder that gave its worker back still holds it")
	}
	c := pool.Lend(func() {})
	if c.Held() {
		t.Fatal("a third ask got the worker while two solves ask")
	}
	a.Return()
	b.Return()
	c.Return()
	d := pool.Lend(func() {})
	if !d.Held() {
		t.Fatal("the worker was not lent again once every ask returned")
	}
	d.Return()
	pool.Close()
	if s := pool.Lend(func() {}); s != nil {
		t.Fatal("a closed pool lent a worker")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if s := NewPool(2).Lend(func() {}); s != nil {
		t.Fatal("a pool lent a worker with one usable CPU")
	}
}

// TestStrandRunsEveryGeneration runs many generations on a lent
// worker, with pauses long enough that the worker and the caller park,
// and closes the pool under a holder: every generation runs exactly
// once, on the worker or, once it has left, on the caller.
func TestStrandRunsEveryGeneration(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, closeAt := range []int{-1, 0, 3, 40} {
		pool := NewPool(2)
		ran := 0
		s := pool.Lend(func() { ran++ })
		if !s.Held() {
			t.Fatal("an idle pool lent no worker")
		}
		for gen := uint32(1); gen <= 60; gen++ {
			if int(gen) == closeAt {
				pool.Close()
			}
			if gen%20 == 0 {
				for i := 0; i < 3*maxSpin; i++ {
					runtime.Gosched()
				}
			}
			if s.Held() {
				s.Step(gen)
				if !s.Wait(gen) {
					ran++
				}
			} else {
				ran++
			}
		}
		s.Return()
		pool.Close()
		if ran != 60 {
			t.Errorf("close at %d: %d generations ran, want 60", closeAt, ran)
		}
	}
}

// TestStrandPanicReachesCaller: a share that panics on the lent worker
// panics the caller's Wait with the same value, and the worker goes back
// to the pool when the caller returns it, so the pool closes cleanly.
func TestStrandPanicReachesCaller(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pool := NewPool(2)
	defer pool.Close()
	s := pool.Lend(func() { panic("share failed") })
	if !s.Held() {
		t.Fatal("an idle pool lent no worker")
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		defer s.Return()
		s.Step(1)
		s.Wait(1)
		return nil
	}()
	if got != "share failed" {
		t.Fatalf("Wait panicked with %v, want the share's panic", got)
	}
	if again := pool.Lend(func() {}); !again.Held() {
		t.Error("the worker did not come back to the pool")
	} else {
		again.Return()
	}
}

// TestStrandGivenBackMidStep: a caller that panics between Step and
// Wait gives its worker back from its deferred Return while the worker
// may still be parked before that generation. Give must come back, and
// the worker must serve the next solve. A share that panicked in a step
// whose Wait never ran must not panic that next solve.
func TestStrandGivenBackMidStep(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pool := NewPool(2)
	defer pool.Close()
	for round := 0; round < 20; round++ {
		s := pool.Lend(func() {})
		if !s.Held() {
			t.Fatal("an idle pool lent no worker")
		}
		for !s.worker.sleeping.Load() {
			runtime.Gosched()
		}
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			defer func() { recover() }()
			defer s.Return()
			s.Step(1)
			panic("caller failed")
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Return did not come back after the caller panicked between Step and Wait", round)
		}
	}

	s := pool.Lend(func() { panic("share failed") })
	s.Step(1)
	for s.done.Load() < 1 {
		runtime.Gosched()
	}
	s.Return()
	next := pool.Lend(func() {})
	if !next.Held() {
		t.Fatal("the worker did not come back to the pool")
	}
	defer next.Return()
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("a new solve's Wait panicked with %v, the last solve's share panic", p)
			}
		}()
		next.Step(1)
		next.Wait(1)
	}()
}

// TestCloseReclaimsBusyStrand closes the pool from another goroutine
// while the holder steps on a worker that serves it: once Close has
// begun, the worker runs no further generation but leaves, the holder
// runs that one itself, and Close returns.
func TestCloseReclaimsBusyStrand(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	pool := NewPool(2)
	ran := 0
	s := pool.Lend(func() { ran++ })
	if !s.Held() {
		t.Fatal("an idle pool lent no worker")
	}
	defer s.Return()
	gen := uint32(1)
	for ; gen <= 100; gen++ {
		s.Step(gen)
		s.Wait(gen)
	}
	if ran != 100 || !s.Held() {
		t.Fatalf("the worker ran %d of 100 generations before Close", ran)
	}
	closed := make(chan struct{})
	go func() {
		pool.Close()
		close(closed)
	}()
	for !pool.closed.Load() {
		runtime.Gosched()
	}
	s.Step(gen)
	if s.Wait(gen) || s.Held() || ran != 100 {
		t.Fatalf("the worker ran a generation published after Close began (%d ran)", ran)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the worker left")
	}
}
