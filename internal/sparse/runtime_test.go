package sparse

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
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
			var pl Plan
			if err := pl.Build(m, []int32{0, rows}); err != nil {
				t.Errorf("Build: %v", err)
				return
			}
			for it := 0; it < 20; it++ {
				if err := pl.MulVec(dst, x); err != nil {
					t.Errorf("plan MulVec: %v", err)
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

// TestKernelShapeErrors covers the argument validation of the batched
// and planned kernels on the CSR, plan and pool entry points.
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
	if err := pl.Build(m, []int32{0, 4}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"plan dst", pl.MulVec(bad, good)},
		{"plan x", pl.MulVec(good, bad)},
		{"unbuilt plan", new(Plan).MulVec(good, good)},
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
// the serial batched kernel: neither MulVecMulti nor MulVec on a built
// plan allocates per call.
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
	var pl Plan
	if err := pl.Build(m, []int32{0, 10, 20, 64}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.MulVecMulti(dsts, xs); err != nil {
			t.Fatal(err)
		}
		if err := pl.MulVec(dsts[0], x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched and planned kernels allocate %v per run, want 0", allocs)
	}
}

// TestPoolZeroAlloc pins that products allocate nothing: a pool's full
// ones, and windowed ones on built plans of CSR and banded operators.
func TestPoolZeroAlloc(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	bm, _ := bandedPair(t, rand.New(rand.NewSource(7)), rows, fig8Offsets)
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	dst := make([]float64, rows)
	window := []int32{0, 9000, 9500, rows}
	pool := NewPool(2)
	defer pool.Close()
	var csrPlan, bandPlan Plan
	if err := csrPlan.Build(m, window); err != nil {
		t.Fatal(err)
	}
	if err := bandPlan.Build(bm, window); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := pool.MulVec(m, dst, x); err != nil {
			t.Fatal(err)
		}
		if err := csrPlan.MulVec(dst, x); err != nil {
			t.Fatal(err)
		}
		if err := bandPlan.MulVec(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("products allocate %v per run, want 0", allocs)
	}
}

// TestReplanZeroAlloc pins Plan.Reserve's sizing: once it has sized a
// plan for up to 8 ranges of a banded matrix, replanning between windows
// that move one end, add a range, change every range but the last, and
// cover every row allocates nothing.
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
	var pl Plan
	pl.Reserve(bm, 8)
	allocs := testing.AllocsPerRun(50, func() {
		for _, w := range windows {
			if err := pl.Build(bm, w); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("replanning allocates %v per round, want 0", allocs)
	}
}

// TestPlanMatchesMulVec: a planned product computes exactly MulVec's
// rows on the rows of its ranges and leaves every other row untouched,
// for windows from a single row to the whole matrix.
func TestPlanMatchesMulVec(t *testing.T) {
	const rows = 16000
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Cos(float64(i)/7) + 1.25
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	for _, ranges := range [][]int32{
		{0, rows},
		{4242, 4243},
		{0, 10, 11, 12, 500, 7000, 7001, 15000, 15999, rows},
		{100, 14000},
		{},
	} {
		var pl Plan
		if err := pl.Build(m, ranges); err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, rows)
		for i := range dst {
			dst[i] = -1 // sentinel: rows off the window keep it
		}
		if err := pl.MulVec(dst, x); err != nil {
			t.Fatal(err)
		}
		in := make([]bool, rows)
		for i := 0; i < len(ranges); i += 2 {
			for r := ranges[i]; r < ranges[i+1]; r++ {
				in[r] = true
			}
		}
		for r := range dst {
			wantDst := -1.0
			if in[r] {
				wantDst = want[r]
			}
			if dst[r] != wantDst {
				t.Fatalf("ranges=%v: dst[%d] = %v, want %v", ranges, r, dst[r], wantDst)
			}
		}
	}
}

// TestPlanShapeErrors: malformed windows fail to plan with ErrShape,
// leaving the plan unbuilt, and a plan's product checks the shape of
// every vector it is given.
func TestPlanShapeErrors(t *testing.T) {
	m := buildStressCSR(t, 100, 2)
	x, dst := make([]float64, 100), make([]float64, 100)
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
		if err := pl.Build(m, []int32{0, 100}); err != nil {
			t.Fatal(err)
		}
		if err := pl.Build(m, ranges); !errors.Is(err, ErrShape) {
			t.Errorf("ranges %v: err = %v, want ErrShape", ranges, err)
		}
		if err := pl.MulVec(dst, x); !errors.Is(err, ErrShape) {
			t.Errorf("ranges %v: product on the plan that failed: err = %v, want ErrShape", ranges, err)
		}
	}
	var pl Plan
	if err := pl.Build(m, []int32{0, 100}); err != nil {
		t.Fatal(err)
	}
	if err := pl.MulVec(dst[:99], x); !errors.Is(err, ErrShape) {
		t.Errorf("short dst: err = %v, want ErrShape", err)
	}
}
