package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"batlife/internal/obs"
)

// fig8Offsets are the band offsets of the uniformised Fig. 8 operator
// at Δ = 50 (10,010 states).
var fig8Offsets = []int{-108, -1, 0, 1, 110}

// fig10Offsets are the band offsets of the uniformised Fig. 10 operator
// at Δ = 2 mAh (113,703 states).
var fig10Offsets = []int{-450, -2, -1, 0, 1, 453}

// bandedPair returns an n×n banded matrix with the given offsets and
// the CSR of the same entries. A band is left empty (all zero) with
// probability 1/6; otherwise each in-range entry is nonzero with
// probability 0.8, with values of either sign.
func bandedPair(t testing.TB, rng *rand.Rand, n int, offsets []int) (*Banded, *CSR) {
	t.Helper()
	vals := make([][]float64, len(offsets))
	bld := NewBuilder(n, n, n*len(offsets))
	for k, o := range offsets {
		vals[k] = make([]float64, n)
		if rng.Intn(6) == 0 {
			continue
		}
		for r := max(0, -o); r < min(n, n-o); r++ {
			if rng.Float64() < 0.8 {
				v := rng.NormFloat64()
				vals[k][r] = v
				bld.Add(r, r+o, v)
			}
		}
	}
	b, err := NewBanded(n, offsets, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := bld.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

// randomOffsets draws nb distinct ascending offsets in (−n, n), mostly
// near the diagonal with the occasional far band.
func randomOffsets(rng *rand.Rand, n, nb int) []int {
	nb = min(nb, 2*n-1)
	span := min(n-1, 3+rng.Intn(150))
	if span < nb {
		span = n - 1
	}
	var offs []int
	for len(offs) < nb {
		o := rng.Intn(2*span+1) - span
		if i, found := slices.BinarySearch(offs, o); !found {
			offs = slices.Insert(offs, i, o)
		}
	}
	return offs
}

// randomVec returns a vector mixing +0, −0, negative and positive
// entries of spread magnitudes.
func randomVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(6) {
		case 0:
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = -rng.Float64()
		default:
			x[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return x
}

// randomRanges returns the whole row range or a scattered window of
// ascending disjoint ranges, the shape the uniformisation loop passes.
func randomRanges(rng *rand.Rand, n int) []int32 {
	if rng.Intn(3) == 0 {
		return []int32{0, int32(n)}
	}
	var rs []int32
	for r := rng.Intn(max(1, n/8)); r < n; {
		hi := min(n, r+1+rng.Intn(max(1, n/6)))
		rs = append(rs, int32(r), int32(hi))
		r = hi + 1 + rng.Intn(max(1, n/10))
	}
	return rs
}

// checkBandedMatchesCSR runs MulVecRanges on b and compares it bit for
// bit with c.MulVec on the rows of ranges, folded into acc when acc is
// non-nil; every other row must keep its sentinel.
func checkBandedMatchesCSR(t testing.TB, pool *Pool, b *Banded, c *CSR, ranges []int32, x, acc []float64, w float64) {
	t.Helper()
	n := b.Rows()
	want := make([]float64, n)
	if err := c.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	wantAcc := slices.Clone(acc)
	dst := make([]float64, n)
	for i := range dst {
		dst[i] = -7 // sentinel: rows off the window keep it
	}
	in := make([]bool, n)
	for i := 0; i < len(ranges); i += 2 {
		for r := ranges[i]; r < ranges[i+1]; r++ {
			in[r] = true
			if acc != nil && w != 0 {
				wantAcc[r] += w * want[r]
			}
		}
	}
	if err := pool.MulVecRanges(b, ranges, dst, x, acc, w); err != nil {
		t.Fatal(err)
	}
	for r := range dst {
		wantDst := -7.0
		if in[r] {
			wantDst = want[r]
		}
		if math.Float64bits(dst[r]) != math.Float64bits(wantDst) {
			t.Fatalf("offsets %v, %d rows, %d workers, w=%v: dst[%d] = %v, CSR %v",
				b.offs, n, pool.Workers(), w, r, dst[r], wantDst)
		}
		if acc != nil && math.Float64bits(acc[r]) != math.Float64bits(wantAcc[r]) {
			t.Fatalf("offsets %v, %d rows, %d workers, w=%v: acc[%d] = %v, CSR fold %v",
				b.offs, n, pool.Workers(), w, r, acc[r], wantAcc[r])
		}
	}
}

// TestBandedMatchesCSR is the property test of the banded kernel: on
// random 1–8-band matrices with empty bands and edge rows, over the
// whole matrix and scattered windows, with no accumulator and with
// w = 0 and w ≠ 0, on pools of 1, 2, 4 and 8 workers, every row and
// every fold is bit-identical to the CSR product of the same entries.
// The large sizes exceed the parallel threshold, and the registry
// confirms that multi-worker pools took the parallel path.
func TestBandedMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, workers := range []int{1, 2, 4, 8} {
		reg := obs.NewRegistry()
		pool := NewPoolObs(workers, reg)
		for trial := 0; trial < 40; trial++ {
			n := []int{1, 2, 7, 90, 600, 1500, 20000}[trial%7]
			b, c := bandedPair(t, rng, n, randomOffsets(rng, n, 1+trial%MaxBands))
			x := randomVec(rng, n)
			ranges := randomRanges(rng, n)
			checkBandedMatchesCSR(t, pool, b, c, ranges, x, nil, 0)
			for _, w := range []float64{0, 0.37, -2.5} {
				checkBandedMatchesCSR(t, pool, b, c, ranges, x, randomVec(rng, n), w)
			}
		}
		if got := reg.Counter("sparse_pool_spmv_parallel_total").Value(); (got > 0) != (workers > 1) {
			t.Errorf("workers=%d: %d parallel products", workers, got)
		}
		pool.Close()
	}
}

// FuzzBandedMatchesCSR is the fuzzing form of TestBandedMatchesCSR: the
// inputs pick the size, the band count and the fold weight, and seed
// the offsets, values, vector and window.
func FuzzBandedMatchesCSR(f *testing.F) {
	f.Add(int64(1), uint16(90), uint8(5), 0.0)
	f.Add(int64(2), uint16(3), uint8(8), 1.5)
	f.Add(int64(3), uint16(1200), uint8(1), -0.25)
	serial, parallel := NewPool(1), NewPool(2)
	defer serial.Close()
	defer parallel.Close()
	f.Fuzz(func(t *testing.T, seed int64, size uint16, bands uint8, w float64) {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%3000
		b, c := bandedPair(t, rng, n, randomOffsets(rng, n, 1+int(bands)%MaxBands))
		x, acc := randomVec(rng, n), randomVec(rng, n)
		ranges := randomRanges(rng, n)
		for _, pool := range []*Pool{serial, parallel} {
			checkBandedMatchesCSR(t, pool, b, c, ranges, x, nil, 0)
			checkBandedMatchesCSR(t, pool, b, c, ranges, x, slices.Clone(acc), w)
		}
		checkKernelsMatchCSR(t, b, c, x)
	})
}

// checkKernelsMatchCSR runs both interior kernels, the Go passes and,
// where it runs, the AVX2 kernel, directly over b's interior rows and
// compares each row bit for bit with c's product. The products above
// go through interiorRows, which runs one kernel per machine; this
// drives the other one too.
func checkKernelsMatchCSR(t testing.TB, b *Banded, c *CSR, x []float64) {
	t.Helper()
	if b.lo >= b.hi {
		return // no interior rows
	}
	want := make([]float64, b.n)
	if err := c.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func(dst, x []float64, lo, hi int){"go": b.interiorRowsGo}
	if useAVX2 {
		kernels["avx2"] = b.interiorRowsAVX2
	}
	for name, kernel := range kernels {
		dst := make([]float64, b.n)
		kernel(dst, x, b.lo, b.hi)
		for r := b.lo; r < b.hi; r++ {
			if math.Float64bits(dst[r]) != math.Float64bits(want[r]) {
				t.Fatalf("%s kernel, offsets %v, %d rows: dst[%d] = %v, CSR %v", name, b.offs, b.n, r, dst[r], want[r])
			}
		}
	}
}

// kernelVec returns a vector for the kernel bit-identity test: ±0,
// negative and positive normals, subnormals, and magnitudes near the
// top of the range, so that products against kernelBands' values
// underflow to subnormals or zero and overflow to ±Inf, and sums of
// opposite infinities give NaN.
func kernelVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		sign := float64(1 - 2*rng.Intn(2))
		switch rng.Intn(8) {
		case 0:
			x[i] = math.Copysign(0, sign)
		case 1:
			x[i] = sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 2:
			x[i] = sign * math.MaxFloat64 * rng.Float64()
		default:
			x[i] = sign * rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return x
}

// kernelBands returns the n-entry bands of offs for the kernel
// bit-identity test, mixing zeros with values of either sign whose
// magnitudes run from subnormal to 1e10, so their products with
// kernelVec's entries cover ±0, subnormals and ±Inf. Entries whose
// column leaves the matrix stay zero, as NewBanded requires.
func kernelBands(rng *rand.Rand, n int, offs []int) [][]float64 {
	vals := make([][]float64, len(offs))
	for k, o := range offs {
		vals[k] = make([]float64, n)
		for r := max(0, -o); r < min(n, n-o); r++ {
			sign := float64(1 - 2*rng.Intn(2))
			switch rng.Intn(6) {
			case 0:
			case 1:
				vals[k][r] = sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<10))
			case 2:
				vals[k][r] = sign * 1e10 * rng.Float64()
			default:
				vals[k][r] = sign * rng.Float64()
			}
		}
	}
	return vals
}

// TestBandedAVX2MatchesGo checks the AVX2 interior kernel against the
// Go passes bit for bit, calling both directly: 1–8 bands, tiles of 0
// to 67 rows (so every mix of 8-row blocks, a 4-row block and the
// scalar tail), every start row mod 8, and x and band values whose
// products include ±0, subnormals and ±Inf. Rows outside the tile must
// keep their sentinel.
func TestBandedAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the AVX2 band kernel does not run here (not amd64, no AVX2, or a race build)")
	}
	const n = 160
	rng := rand.New(rand.NewSource(7))
	for nb := 1; nb <= MaxBands; nb++ {
		offs := randomOffsets(rng, 20, nb)
		b, err := NewBanded(n, offs, kernelBands(rng, n, offs))
		if err != nil {
			t.Fatal(err)
		}
		if b.Kernel() != "bands-avx2" {
			t.Fatalf("Kernel() = %q with AVX2 on", b.Kernel())
		}
		for length := 0; length <= 67; length++ {
			for start := 0; start < 8; start++ {
				lo := b.lo + start
				hi := lo + length
				if hi > b.hi {
					t.Fatalf("offsets %v: tile [%d, %d) leaves the interior [%d, %d)", b.offs, lo, hi, b.lo, b.hi)
				}
				x := kernelVec(rng, n)
				want, got := make([]float64, n), make([]float64, n)
				for i := range want {
					want[i], got[i] = -7, -7
				}
				b.interiorRowsGo(want, x, lo, hi)
				b.interiorRowsAVX2(got, x, lo, hi)
				for r := range want {
					if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
						t.Fatalf("offsets %v, tile [%d, %d): row %d = %v (%#x), Go passes %v (%#x)",
							b.offs, lo, hi, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
					}
				}
			}
		}
	}
}

// TestNewBandedShapeErrors: malformed band layouts fail with ErrShape.
func TestNewBandedShapeErrors(t *testing.T) {
	band := func(n int) []float64 { return make([]float64, n) }
	for name, tc := range map[string]struct {
		offs []int
		vals [][]float64
	}{
		"no bands":       {nil, nil},
		"too many bands": {[]int{-4, -3, -2, -1, 0, 1, 2, 3, 4}, [][]float64{band(5), band(5), band(5), band(5), band(5), band(5), band(5), band(5), band(5)}},
		"count mismatch": {[]int{0, 1}, [][]float64{band(5)}},
		"short band":     {[]int{0, 1}, [][]float64{band(5), band(4)}},
		"descending":     {[]int{1, 0}, [][]float64{band(5), band(5)}},
		"duplicate":      {[]int{0, 0}, [][]float64{band(5), band(5)}},
		"off the matrix": {[]int{0, 5}, [][]float64{band(5), band(5)}},
	} {
		if _, err := NewBanded(5, tc.offs, tc.vals); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", name, err)
		}
	}
}

// TestBandedValidate: the debugchecks self-check rejects a non-finite
// value, a nonzero where a band's column leaves the matrix, and
// offsets that do not ascend.
func TestBandedValidate(t *testing.T) {
	fresh := func() *Banded {
		b, _ := bandedPair(t, rand.New(rand.NewSource(4)), 50, []int{-2, 0, 3})
		return b
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("well-formed: %v", err)
	}
	for name, corrupt := range map[string]func(b *Banded){
		"NaN":             func(b *Banded) { b.vals[1][10] = math.NaN() },
		"Inf":             func(b *Banded) { b.vals[0][20] = math.Inf(-1) },
		"below column 0":  func(b *Banded) { b.vals[0][1] = 0.5 },
		"past column n-1": func(b *Banded) { b.vals[2][48] = -0.5 },
		"not ascending":   func(b *Banded) { b.offs[0], b.offs[1] = b.offs[1], b.offs[0] },
	} {
		b := fresh()
		corrupt(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted layout", name)
		}
	}
}

// BenchmarkWindowProduct times one windowed product over a scattered
// window of a 10,010-row matrix with Fig. 8's band offsets, as the
// uniformisation loop runs it, on the CSR and on the banded layout.
func BenchmarkWindowProduct(b *testing.B) {
	const n = 10010
	rng := rand.New(rand.NewSource(5))
	bm, cm := bandedPair(b, rng, n, fig8Offsets)
	x := randomVec(rng, n)
	var ranges []int32
	for r := int32(20); r+40 < n; r += 110 { // 90 intervals of 40 rows
		ranges = append(ranges, r, r+40)
	}
	dst := make([]float64, n)
	pool := NewPool(1)
	defer pool.Close()
	for _, op := range []Operator{cm, bm} {
		b.Run(fmt.Sprintf("%T", op)[len("*sparse."):], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := pool.MulVecRanges(op, ranges, dst, x, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBandedKernel times one interior tile of bandTile rows on each
// interior kernel, called directly, with Fig. 8's 5 band offsets and
// Fig. 10's 6. The avx2 runs skip where that kernel does not run.
func BenchmarkBandedKernel(b *testing.B) {
	for _, fig := range []struct {
		name string
		offs []int
	}{{"fig8", fig8Offsets}, {"fig10", fig10Offsets}} {
		n := 2*bandTile + fig.offs[len(fig.offs)-1] - fig.offs[0]
		rng := rand.New(rand.NewSource(8))
		bm, _ := bandedPair(b, rng, n, fig.offs)
		x, dst := randomVec(rng, n), make([]float64, n)
		lo := bm.lo
		for _, k := range []struct {
			name   string
			kernel func(dst, x []float64, lo, hi int)
		}{{"go", bm.interiorRowsGo}, {"avx2", bm.interiorRowsAVX2}} {
			b.Run(fig.name+"/"+k.name, func(b *testing.B) {
				if k.name == "avx2" && !useAVX2 {
					b.Skip("the AVX2 band kernel does not run here")
				}
				b.SetBytes(int64(bandTile * 8 * (2*len(fig.offs) + 1)))
				for i := 0; i < b.N; i++ {
					k.kernel(dst, x, lo, lo+bandTile)
				}
			})
		}
	}
}
