package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"batlife/internal/obs"
)

// waitForGoroutines polls until the process goroutine count drops to at
// most want. Worker goroutines mark their WaitGroup done before their
// final return, so a just-Closed pool's workers may linger for a
// scheduler beat.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolCloseReleasesWorkers is the goroutine-leak regression test for
// the pool's worker: a pool starts at most one goroutine, only when it
// first lends its worker, never for a product, and sheds it on Close.
// That is the contract that lets TransientOptions.pool() hand out
// per-solve pools safely. It holds too for a pool that lent its worker
// to a solve: one that returned it part way, as a cancelled solve does,
// and one that still holds it when the pool closes. Goroutines that
// earlier tests left exiting can only lower the counts, so the bounds
// are upper ones; a served generation shows the worker is there.
func TestPoolCloseReleasesWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	m := buildStressCSR(t, 16000, 4)
	x := make([]float64, 16000)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	dst := make([]float64, 16000)

	before := runtime.NumGoroutine()
	pool := NewPool(4)
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a product started %d goroutines, want none", n-before)
	}
	ran := 0
	for lend := 0; lend < 2; lend++ {
		s := pool.Lend(func() { ran++ })
		if !s.Held() {
			t.Fatal("an idle pool lent no worker")
		}
		s.Step(1)
		s.Wait(1)
		if err := pool.MulVec(m, dst, x); err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		if n := runtime.NumGoroutine(); n > before+1 {
			t.Fatalf("lend %d: %d goroutines started, want the one worker", lend, n-before)
		}
		s.Return()
	}
	if ran != 2 {
		t.Fatalf("the lent worker served %d generations, want 2", ran)
	}
	pool.Close()
	waitForGoroutines(t, before)

	for _, holdOnClose := range []bool{false, true} {
		pool := NewPool(2)
		s := pool.Lend(func() {})
		if !s.Held() {
			t.Fatal("an idle pool lent no worker")
		}
		for gen := uint32(1); gen <= 5; gen++ {
			s.Step(gen)
			s.Wait(gen)
		}
		if !holdOnClose {
			s.Return()
		}
		pool.Close()
		if holdOnClose {
			s.Return()
		}
		waitForGoroutines(t, before)
	}
}

// TestPoolCloseIdempotent closes a pool repeatedly, including
// concurrently, once its worker has started; every call must return,
// and the pool must stay usable afterwards.
func TestPoolCloseIdempotent(t *testing.T) {
	m := buildStressCSR(t, 17000, 3)
	x := make([]float64, 17000)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	want := make([]float64, 17000)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(3)
	dst := make([]float64, 17000)
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatal(err)
	}
	if s := pool.Lend(func() {}); s != nil { // starts the worker
		s.Return()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Close()
		}()
	}
	wg.Wait()
	pool.Close() // and once more, sequentially

	// A closed pool still computes products, bit-identically.
	for i := range dst {
		dst[i] = math.NaN()
	}
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatalf("MulVec after Close: %v", err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-Close dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestPoolCloseNeverStartedNoGoroutines: a pool that never lent its
// worker must not spawn anything, and Close on it is a cheap no-op.
func TestPoolCloseNeverStartedNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(8)
	b := NewBuilder(16, 16, 0)
	for i := 0; i < 16; i++ {
		b.Add(i, i, 1)
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dst, x := make([]float64, 16), make([]float64, 16)
	x[3] = 1
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("small products spawned goroutines: %d, want %d", n, before)
	}
	pool.Close()
	waitForGoroutines(t, before)
}

// TestPoolCloseRacesInflight hammers one pool with products from many
// goroutines while Close fires in the middle: nothing may deadlock, and
// every product, run before or after the close, must still be
// bit-identical to the serial kernel.
func TestPoolCloseRacesInflight(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, rows)
			for it := 0; it < 30; it++ {
				if err := pool.MulVec(m, dst, x); err != nil {
					t.Errorf("MulVec: %v", err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Errorf("iter %d: dst[%d] = %v, want %v", it, i, dst[i], want[i])
						return
					}
				}
			}
		}()
	}
	time.Sleep(time.Millisecond) // let some products get airborne
	pool.Close()
	wg.Wait()
}

// TestDefaultPoolShared pins the bugfix for the per-solve pool leak:
// TransientOptions with neither Pool nor Workers must resolve to one
// process-wide pool rather than constructing (and leaking) worker sets
// per solve.
func TestDefaultPoolShared(t *testing.T) {
	p1, p2 := DefaultPool(), DefaultPool()
	if p1 != p2 {
		t.Fatalf("DefaultPool returned distinct pools %p, %p", p1, p2)
	}
	if p1.workers < 1 {
		t.Fatalf("DefaultPool workers = %d", p1.workers)
	}
}

// TestMulVecRangesFoldMatchesUnfused checks the fused fold of a planned
// product over all rows against its definition — MulVec then
// acc[i] += w·dst[i] — on a one-worker and a four-worker pool, bit for
// bit, including the w = 0 accumulate skip. Each pool plans the rows
// once and runs every product on that plan.
func TestMulVecRangesFoldMatchesUnfused(t *testing.T) {
	const rows = 13200
	m := buildStressCSR(t, rows, 5)
	x := make([]float64, rows)
	accInit := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i)) + 1.5
		accInit[i] = 1 / float64(i+1)
	}

	pools := map[int]*Pool{}
	plans := map[int]*Plan{}
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		defer pool.Close()
		pl := new(Plan)
		if err := pool.Plan(pl, m, []int32{0, rows}); err != nil {
			t.Fatal(err)
		}
		pools[workers], plans[workers] = pool, pl
	}
	for _, w := range []float64{0, 1, 0.37, -2.25} {
		wantDst := make([]float64, rows)
		wantAcc := append([]float64(nil), accInit...)
		if err := m.MulVec(wantDst, x); err != nil {
			t.Fatal(err)
		}
		if w != 0 {
			for i := range wantAcc {
				wantAcc[i] += w * wantDst[i]
			}
		}

		check := func(label string, run func(dst, acc []float64) error) {
			t.Helper()
			dst := make([]float64, rows)
			acc := append([]float64(nil), accInit...)
			if err := run(dst, acc); err != nil {
				t.Fatalf("%s (w=%v): %v", label, w, err)
			}
			for i := range dst {
				if dst[i] != wantDst[i] {
					t.Fatalf("%s (w=%v): dst[%d] = %v, want %v", label, w, i, dst[i], wantDst[i])
				}
				if acc[i] != wantAcc[i] {
					t.Fatalf("%s (w=%v): acc[%d] = %v, want %v", label, w, i, acc[i], wantAcc[i])
				}
			}
		}
		for _, workers := range []int{1, 4} {
			check(fmt.Sprintf("workers=%d", workers), func(dst, acc []float64) error {
				return pools[workers].MulVecPlan(plans[workers], dst, x, acc, w)
			})
		}
	}
}

// TestMulVecMultiMatchesSolo checks the batched kernel, on the CSR and
// through a pool, against B solo MulVec calls, bit for bit, for several
// batch sizes.
func TestMulVecMultiMatchesSolo(t *testing.T) {
	const rows = 14800
	m := buildStressCSR(t, rows, 4)
	for _, batch := range []int{1, 2, 3, 7} {
		xs := make([][]float64, batch)
		want := make([][]float64, batch)
		for k := range xs {
			xs[k] = make([]float64, rows)
			for i := range xs[k] {
				xs[k][i] = math.Sin(float64(i*(k+1))) + float64(k)
			}
			want[k] = make([]float64, rows)
			if err := m.MulVec(want[k], xs[k]); err != nil {
				t.Fatal(err)
			}
		}
		verify := func(label string, dsts [][]float64) {
			t.Helper()
			for k := range dsts {
				for i := range dsts[k] {
					if dsts[k][i] != want[k][i] {
						t.Fatalf("%s batch=%d: dsts[%d][%d] = %v, want %v",
							label, batch, k, i, dsts[k][i], want[k][i])
					}
				}
			}
		}
		dsts := make([][]float64, batch)
		for k := range dsts {
			dsts[k] = make([]float64, rows)
		}
		if err := m.MulVecMulti(dsts, xs); err != nil {
			t.Fatalf("CSR MulVecMulti: %v", err)
		}
		verify("CSR", dsts)

		pool := NewPool(4)
		for k := range dsts {
			for i := range dsts[k] {
				dsts[k][i] = math.NaN()
			}
		}
		if err := pool.MulVecMulti(m, dsts, xs); err != nil {
			t.Fatalf("pool MulVecMulti: %v", err)
		}
		verify("pool", dsts)
		pool.Close()
	}
}

// TestPoolMulVecMultiConcurrent drives batched and single products
// through one pool from many goroutines at once — the mixed traffic a
// daemon produces when batched sweeps and solo solves overlap. Run
// under -race.
func TestPoolMulVecMultiConcurrent(t *testing.T) {
	const rows = 14600
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	for i := range x {
		x[i] = float64(i%13) + 0.25
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				dsts := [][]float64{make([]float64, rows), make([]float64, rows)}
				xs := [][]float64{x, x}
				for it := 0; it < 20; it++ {
					if err := pool.MulVecMulti(m, dsts, xs); err != nil {
						t.Errorf("MulVecMulti: %v", err)
						return
					}
					for k := range dsts {
						for i := range dsts[k] {
							if dsts[k][i] != want[i] {
								t.Errorf("dsts[%d][%d] = %v, want %v", k, i, dsts[k][i], want[i])
								return
							}
						}
					}
				}
				return
			}
			dst := make([]float64, rows)
			acc := make([]float64, rows)
			var pl Plan
			if err := pool.Plan(&pl, m, []int32{0, rows}); err != nil {
				t.Errorf("Plan: %v", err)
				return
			}
			for it := 0; it < 20; it++ {
				if err := pool.MulVecPlan(&pl, dst, x, acc, 0); err != nil {
					t.Errorf("MulVecPlan: %v", err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKernelShapeErrors covers the argument validation of the fused,
// batched and planned kernels on both the CSR and pool entry points.
func TestKernelShapeErrors(t *testing.T) {
	b := NewBuilder(4, 4, 0)
	b.Add(0, 0, 1)
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	good := make([]float64, 4)
	bad := make([]float64, 3)
	var pl Plan
	if err := pool.Plan(&pl, m, []int32{0, 4}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"pool accum dst", pool.MulVecPlan(&pl, bad, good, good, 1)},
		{"pool accum x", pool.MulVecPlan(&pl, good, bad, good, 1)},
		{"unbuilt plan", pool.MulVecPlan(&Plan{}, good, good, nil, 0)},
		{"serial multi ragged", m.MulVecMulti([][]float64{good}, [][]float64{bad})},
		{"serial multi arity", m.MulVecMulti([][]float64{good, good}, [][]float64{good})},
		{"pool multi ragged", pool.MulVecMulti(m, [][]float64{good}, [][]float64{bad})},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", c.name, c.err)
		}
	}
	if err := m.MulVecMulti(nil, nil); err != nil {
		t.Errorf("empty batch: %v, want nil", err)
	}
}

// buildSkewedCSR returns a matrix whose nnz mass is concentrated in a
// small prefix of rows, as expanded battery chains pile it near the
// depleted boundary.
func buildSkewedCSR(t testing.TB, rows, heavy, heavyNNZ int) *CSR {
	t.Helper()
	b := NewBuilder(rows, rows, heavy*heavyNNZ+rows)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		n := 1
		if r < heavy {
			n = heavyNNZ
		}
		for k := 0; k < n; k++ {
			b.Add(r, int(next()%uint64(rows)), 1+float64(next()%100)/100)
		}
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFusedKernelsZeroAlloc backs the //numlint:hotpath annotation on
// the serial batched kernel and the fused planned product: neither
// MulVecMulti nor a fused MulVecPlan on a built plan allocates per call.
func TestFusedKernelsZeroAlloc(t *testing.T) {
	b := NewBuilder(64, 64, 0)
	for i := 0; i < 64; i++ {
		b.Add(i, i, 2)
		b.Add(i, (i+3)%64, -0.5)
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%5) + 0.25
	}
	dsts := [][]float64{make([]float64, 64), make([]float64, 64)}
	xs := [][]float64{x, x}
	pool := NewPool(1)
	defer pool.Close()
	var pl Plan
	if err := pool.Plan(&pl, m, []int32{0, 10, 20, 64}); err != nil {
		t.Fatal(err)
	}
	acc := make([]float64, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.MulVecMulti(dsts, xs); err != nil {
			t.Fatal(err)
		}
		if err := pool.MulVecPlan(&pl, dsts[0], x, acc, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fused kernels allocate %v per run, want 0", allocs)
	}
}

// TestPoolZeroAlloc pins that pool products allocate nothing: full ones,
// and windowed and fused ones on built plans, on CSR and banded
// operators, with and without pool metrics, on 1 to 8 workers.
func TestPoolZeroAlloc(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	bm, _ := bandedPair(t, rand.New(rand.NewSource(7)), rows, fig8Offsets)
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	dst := make([]float64, rows)
	acc := make([]float64, rows)
	window := []int32{0, 9000, 9500, rows}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			pool := NewPoolObs(workers, reg)
			var csrPlan, bandPlan Plan
			if err := pool.Plan(&csrPlan, m, window); err != nil {
				t.Fatal(err)
			}
			if err := pool.Plan(&bandPlan, bm, window); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := pool.MulVec(m, dst, x); err != nil {
					t.Fatal(err)
				}
				if err := pool.MulVecPlan(&csrPlan, dst, x, nil, 0); err != nil {
					t.Fatal(err)
				}
				if err := pool.MulVecPlan(&csrPlan, dst, x, acc, 0.25); err != nil {
					t.Fatal(err)
				}
				if err := pool.MulVecPlan(&bandPlan, dst, x, nil, 0); err != nil {
					t.Fatal(err)
				}
				if err := pool.MulVecPlan(&bandPlan, dst, x, acc, 0.25); err != nil {
					t.Fatal(err)
				}
			})
			pool.Close()
			if allocs != 0 {
				t.Errorf("workers=%d metrics=%v: products allocate %v per run, want 0", workers, reg != nil, allocs)
			}
		}
	}
}

// TestReplanZeroAlloc pins Pool.Reserve's sizing: once it has sized a
// plan for up to 8 ranges of a banded matrix, replanning between windows
// that move one end, add a range, change every range but the last, and
// cover every row allocates nothing, on a one-worker and a four-worker
// pool.
// The change of all but the last range is the replan that needs the
// most room: its new segments are cut past all the live ones.
func TestReplanZeroAlloc(t *testing.T) {
	const n = 20000
	bm, _ := bandedPair(t, rand.New(rand.NewSource(9)), n, fig10Offsets)
	windows := [][]int32{
		{100, 700, 2000, 2600, 9000, 19000},
		{100, 701, 2000, 2600, 9000, 19000},
		{100, 701, 1990, 2600, 3000, 3100, 9000, 19000},
		{50, 60, 70, 80, 90, 1000, 1500, 4000, 4100, 8000, 9000, 19000},
		{0, n},
	}
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		var pl Plan
		pool.Reserve(&pl, bm, 8)
		allocs := testing.AllocsPerRun(50, func() {
			for _, w := range windows {
				if err := pool.Plan(&pl, bm, w); err != nil {
					t.Fatal(err)
				}
			}
		})
		pool.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: replanning allocates %v per round, want 0", workers, allocs)
		}
	}
}

// TestMulVecRangesMatchesMulVec: a planned product computes exactly
// MulVec's rows (and their fold into acc) on the rows of its ranges and
// leaves every other row untouched, on pools of one to three workers,
// for windows from a single row to the whole matrix, each plan run with
// and without a fold.
func TestMulVecRangesMatchesMulVec(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	accInit := make([]float64, rows)
	for i := range x {
		x[i] = math.Cos(float64(i)/7) + 1.25
		accInit[i] = float64(i % 3)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	windows := [][]int32{
		{0, rows},
		{4242, 4243},
		{0, 10, 11, 12, 500, 7000, 7001, 15000, 15999, rows},
		{100, 14000},
		{},
	}
	for _, workers := range []int{1, 2, 3} {
		pool := NewPool(workers)
		for _, ranges := range windows {
			var pl Plan
			if err := pool.Plan(&pl, m, ranges); err != nil {
				t.Fatal(err)
			}
			for _, w := range []float64{0, 0.75} {
				dst := make([]float64, rows)
				for i := range dst {
					dst[i] = -1 // sentinel: rows off the window keep it
				}
				var acc []float64
				if w != 0 {
					acc = append([]float64(nil), accInit...)
				}
				if err := pool.MulVecPlan(&pl, dst, x, acc, w); err != nil {
					t.Fatal(err)
				}
				in := make([]bool, rows)
				for i := 0; i < len(ranges); i += 2 {
					for r := ranges[i]; r < ranges[i+1]; r++ {
						in[r] = true
					}
				}
				for r := range dst {
					wantDst, wantAcc := -1.0, accInit[r]
					if in[r] {
						wantDst, wantAcc = want[r], accInit[r]+w*want[r]
					}
					if dst[r] != wantDst {
						t.Fatalf("workers=%d ranges=%v w=%v: dst[%d] = %v, want %v", workers, ranges, w, r, dst[r], wantDst)
					}
					if acc != nil && acc[r] != wantAcc {
						t.Fatalf("workers=%d ranges=%v w=%v: acc[%d] = %v, want %v", workers, ranges, w, r, acc[r], wantAcc)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestMulVecRangesShapeErrors: malformed windows fail to plan with
// ErrShape, leaving the plan unbuilt, and a plan's product checks the
// shape of every vector it is given.
func TestMulVecRangesShapeErrors(t *testing.T) {
	m := buildStressCSR(t, 100, 2)
	x, dst := make([]float64, 100), make([]float64, 100)
	pool := NewPool(2)
	defer pool.Close()
	for _, ranges := range [][]int32{
		{0},            // odd bound count
		{5, 5},         // empty range
		{7, 3},         // inverted
		{0, 101},       // past the last row
		{-1, 4},        // before the first row
		{0, 10, 5, 20}, // overlapping
		{10, 20, 0, 5}, // descending
	} {
		pl := new(Plan)
		if err := pool.Plan(pl, m, []int32{0, 100}); err != nil {
			t.Fatal(err)
		}
		if err := pool.Plan(pl, m, ranges); !errors.Is(err, ErrShape) {
			t.Errorf("ranges %v: err = %v, want ErrShape", ranges, err)
		}
		if err := pool.MulVecPlan(pl, dst, x, nil, 0); !errors.Is(err, ErrShape) {
			t.Errorf("ranges %v: product on the plan that failed: err = %v, want ErrShape", ranges, err)
		}
	}
	var pl Plan
	if err := pool.Plan(&pl, m, []int32{0, 100}); err != nil {
		t.Fatal(err)
	}
	if err := pool.MulVecPlan(&pl, dst, x, make([]float64, 99), 1); !errors.Is(err, ErrShape) {
		t.Errorf("short acc: err = %v, want ErrShape", err)
	}
}
