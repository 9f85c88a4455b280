package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// buildStressCSR assembles a deterministic pseudo-random rows×rows
// matrix with nnzPerRow entries drawn for each row at random columns (a
// column drawn twice merges into one entry).
func buildStressCSR(t testing.TB, rows, nnzPerRow int) *CSR {
	t.Helper()
	b := NewBuilder(rows, rows, rows*nnzPerRow)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < nnzPerRow; k++ {
			col := int(next() % uint64(rows))
			val := 1 + float64(next()%1000)/1000
			b.Add(r, col, val)
		}
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m
}

// TestPoolMulVecConcurrentSharing drives one Pool and one CSR from many
// goroutines at once — the sharing pattern the transient solver will
// adopt once solves are served concurrently — and cross-checks every
// result against the serial kernel. Run with -race (the CI default) to
// certify the pool has no hidden shared state.
func TestPoolMulVecConcurrentSharing(t *testing.T) {
	const (
		rows       = 13000
		goroutines = 8
		iterations = 25
	)
	m := buildStressCSR(t, rows, 5)
	pool := NewPool(4)
	defer pool.Close()

	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i)) // fixed, shared read-only input
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatalf("serial MulVec: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, rows)
			for it := 0; it < iterations; it++ {
				if err := pool.MulVec(m, dst, x); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, it, err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d iter %d: dst[%d]=%v want %v", g, it, i, dst[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolMulVecConcurrentPools exercises many distinct Pools sharing
// one immutable CSR, ensuring the matrix itself is safe for concurrent
// readers.
func TestPoolMulVecConcurrentPools(t *testing.T) {
	const rows = 16800
	m := buildStressCSR(t, rows, 3)
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatalf("serial MulVec: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			pool := NewPool(workers)
			defer pool.Close()
			dst := make([]float64, rows)
			if err := pool.MulVec(m, dst, x); err != nil {
				t.Errorf("pool(%d): %v", workers, err)
				return
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Errorf("pool(%d): dst[%d]=%v want %v", workers, i, dst[i], want[i])
					return
				}
			}
		}(g%4 + 1)
	}
	wg.Wait()
}

// TestPoolMulVecRangesConcurrent drives one pool from several goroutines
// with different planned products at once, on a CSR and on a banded
// operator, and pairs of goroutines share one plan. Every result must
// match the serial CSR kernel; run with -race to certify that plans are
// read-only.
func TestPoolMulVecRangesConcurrent(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	bm, bc := bandedPair(t, rand.New(rand.NewSource(8)), rows, fig8Offsets)
	pool := NewPool(3)
	defer pool.Close()
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i) / 5)
	}
	want, wantBanded := make([]float64, rows), make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	if err := bc.MulVec(wantBanded, x); err != nil {
		t.Fatal(err)
	}
	// Goroutines g and g+6 run the products of plans[g].
	plans := make([]Plan, 6)
	windows := make([][]int32, 6)
	for g := range plans {
		var m Operator = m
		if g%2 == 1 {
			m = bm
		}
		lo := int32(g * 1000)
		windows[g] = []int32{lo, lo + 9000, lo + 9100, rows}
		if err := pool.Plan(&plans[g], m, windows[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := want
			if g%2 == 1 {
				want = wantBanded
			}
			pl, ranges := &plans[g%6], windows[g%6]
			dst := make([]float64, rows)
			for it := 0; it < 30; it++ {
				if err := pool.MulVecPlan(pl, dst, x, nil, 0); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i := 0; i < len(ranges); i += 2 {
					for r := ranges[i]; r < ranges[i+1]; r++ {
						if dst[r] != want[r] {
							t.Errorf("goroutine %d iter %d: dst[%d] = %v, want %v", g, it, r, dst[r], want[r])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
