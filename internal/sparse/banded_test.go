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
// probability 1/6. A third of the others repeat a period of 1 to 8
// values, some of them +0 or −0, between a random run of irregular head
// rows and one of irregular tail rows (see periodicBand). Otherwise
// each in-range entry is nonzero with probability 0.8, with values of
// either sign. It checks that the banded matrix reads back every value
// bit for bit.
func bandedPair(t testing.TB, rng *rand.Rand, n int, offsets []int) (*Banded, *CSR) {
	t.Helper()
	vals := make([][]float64, len(offsets))
	for k, o := range offsets {
		vals[k] = make([]float64, n)
		lo, hi := max(0, -o), min(n, n-o)
		switch rng.Intn(6) {
		case 0:
		case 1, 2:
			periodicBand(rng, vals[k], lo, hi)
		default:
			for r := lo; r < hi; r++ {
				if rng.Float64() < 0.8 {
					vals[k][r] = rng.NormFloat64()
				}
			}
		}
	}
	return bandsOf(t, n, offsets, vals)
}

// periodicBand fills rows [lo, hi) of v with a period of 1 to 8 values,
// each +0, −0 or a normal draw, preceded by up to hi−lo/8 irregular rows
// and followed by as many: the shape of a uniformised band, whose
// absorbing slice and matrix ends break the workload period.
func periodicBand(rng *rand.Rand, v []float64, lo, hi int) {
	period := make([]float64, 1+rng.Intn(maxPeriod))
	for i := range period {
		switch rng.Intn(4) {
		case 0:
		case 1:
			period[i] = math.Copysign(0, -1)
		default:
			period[i] = rng.NormFloat64()
		}
	}
	a := lo + rng.Intn(max(1, (hi-lo)/8))
	c := hi - rng.Intn(max(1, (hi-lo)/8))
	for r := lo; r < hi; r++ {
		if r >= a && r < c {
			v[r] = period[(r-a)%len(period)]
		} else if rng.Intn(5) > 0 {
			v[r] = rng.NormFloat64()
		}
	}
}

// bandsOf builds the banded matrix of vals and the CSR of its nonzero
// entries, and checks that the banded matrix is valid, stores no more
// values than its dense bands would, and reads back every value of vals
// bit for bit, ±0 included.
func bandsOf(t testing.TB, n int, offsets []int, vals [][]float64) (*Banded, *CSR) {
	t.Helper()
	bld := NewBuilder(n, n, n*len(offsets))
	for k, o := range offsets {
		for r, v := range vals[k] {
			if v != 0 {
				bld.Add(r, r+o, v)
			}
		}
	}
	want := make([][]float64, len(vals))
	for k := range vals {
		want[k] = slices.Clone(vals[k])
	}
	b, err := NewBanded(n, offsets, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := b.StoredValues(); got > n*len(offsets) {
		t.Fatalf("offsets %v, %d rows, periods %v: %d values stored, more than the %d of dense bands",
			offsets, n, b.Periods(), got, n*len(offsets))
	}
	for k := range want {
		for r, v := range want[k] {
			if got := b.at(k, r); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("offsets %v, %d rows, band %d (period %d over [%d, %d)): row %d reads %v, stored %v",
					offsets, n, k, b.bands[k].p, b.bands[k].a, b.bands[k].c, r, got, v)
			}
		}
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

// edgeRanges returns a window of two ranges, one from row 0 and one to
// row n, each 1 to 300 rows long, or the whole row range when they
// would meet: the rows where a band's column leaves the matrix.
func edgeRanges(rng *rand.Rand, n int) []int32 {
	a, c := 1+rng.Intn(300), n-1-rng.Intn(300)
	if a >= c {
		return []int32{0, int32(n)}
	}
	return []int32{0, int32(a), int32(c), int32(n)}
}

// cutRanges returns a window of ascending disjoint ranges that start
// at, end at or straddle b's cuts, the region bounds of its periodic
// bands and the rows where a band's column enters or leaves the matrix:
// one range about each cut, reaching 0 to 700 rows to either side.
func cutRanges(rng *rand.Rand, b *Banded) []int32 {
	var rs []int32
	for _, c := range b.cuts {
		lo, hi := c, c
		if rng.Intn(3) > 0 {
			lo = max(0, c-1-rng.Intn(700))
		}
		if rng.Intn(3) > 0 || lo == hi {
			hi = min(b.n, c+1+rng.Intn(700))
		}
		if lo == hi { // a bound at row n: reach back, ranges are never empty
			lo = hi - 1
		}
		if k := len(rs); k > 0 && int(rs[k-1]) >= lo {
			rs[k-1] = int32(max(int(rs[k-1]), hi))
			continue
		}
		rs = append(rs, int32(lo), int32(hi))
	}
	return rs
}

// planBanded plans b's products over ranges on pool.
func planBanded(t testing.TB, pool *Pool, b *Banded, ranges []int32) *Plan {
	t.Helper()
	pl := new(Plan)
	if err := pool.Plan(pl, b, ranges); err != nil {
		t.Fatal(err)
	}
	return pl
}

// checkBandedMatchesCSR runs the product of pl, a plan of b over ranges,
// and compares it bit for bit with c.MulVec on the rows of ranges,
// folded into acc when acc is non-nil; every other row must keep its
// sentinel.
func checkBandedMatchesCSR(t testing.TB, pool *Pool, pl *Plan, b *Banded, c *CSR, ranges []int32, x, acc []float64, w float64) {
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
	if err := pool.MulVecPlan(pl, dst, x, acc, w); err != nil {
		t.Fatal(err)
	}
	for r := range dst {
		wantDst := -7.0
		if in[r] {
			wantDst = want[r]
		}
		if math.Float64bits(dst[r]) != math.Float64bits(wantDst) {
			t.Fatalf("offsets %v, %d rows, %d workers, w=%v: dst[%d] = %v, CSR %v",
				b.offs, n, pool.workers, w, r, dst[r], wantDst)
		}
		if acc != nil && math.Float64bits(acc[r]) != math.Float64bits(wantAcc[r]) {
			t.Fatalf("offsets %v, %d rows, %d workers, w=%v: acc[%d] = %v, CSR fold %v",
				b.offs, n, pool.workers, w, r, acc[r], wantAcc[r])
		}
	}
}

// TestBandedMatchesCSR is the property test of the banded kernel: on
// random 1–8-band matrices with empty bands, periodic bands and edge
// rows, over the whole matrix, scattered windows, windows at both
// matrix edges and windows about the cuts, with no accumulator and
// with w = 0 and w ≠ 0 on one plan per window, on pools of 1, 2, 4 and
// 8 workers, every row and every fold is bit-identical to the CSR
// product of the same entries. The large sizes exceed the parallel
// threshold, and the registry confirms that multi-worker pools took the
// parallel path.
func TestBandedMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	periodic := 0
	for _, workers := range []int{1, 2, 4, 8} {
		reg := obs.NewRegistry()
		pool := NewPoolObs(workers, reg)
		for trial := 0; trial < 40; trial++ {
			n := []int{1, 2, 7, 90, 600, 1500, 20000}[trial%7]
			b, c := bandedPair(t, rng, n, randomOffsets(rng, n, 1+trial%MaxBands))
			x := randomVec(rng, n)
			periodic += b.PeriodicBands()
			for _, ranges := range [][]int32{randomRanges(rng, n), edgeRanges(rng, n), cutRanges(rng, b)} {
				if len(ranges) == 0 {
					continue
				}
				pl := planBanded(t, pool, b, ranges)
				checkBandedMatchesCSR(t, pool, pl, b, c, ranges, x, nil, 0)
				for _, w := range []float64{0, 0.37, -2.5} {
					checkBandedMatchesCSR(t, pool, pl, b, c, ranges, x, randomVec(rng, n), w)
				}
			}
		}
		if got := reg.Counter("sparse_pool_spmv_parallel_total").Value(); (got > 0) != (workers > 1) {
			t.Errorf("workers=%d: %d parallel products", workers, got)
		}
		pool.Close()
	}
	if periodic < 20 {
		t.Errorf("only %d bands stored as a period over the whole test", periodic)
	}
}

// FuzzBandedMatchesCSR is the fuzzing form of TestBandedMatchesCSR: the
// inputs pick the size, the band count and the fold weight, and seed
// the offsets, values, vectors and windows. Each window's plan, one per
// pool, runs the products of two different x and acc pairs; one window
// touches both matrix edges. The seeds of 32, 33 and 80 rows give
// whole-matrix windows that run the kernel's 32-row block alone, with
// one more row, and with 8-row blocks after it.
func FuzzBandedMatchesCSR(f *testing.F) {
	f.Add(int64(1), uint16(90), uint8(5), 0.0)
	f.Add(int64(2), uint16(3), uint8(8), 1.5)
	f.Add(int64(3), uint16(1200), uint8(1), -0.25)
	f.Add(int64(4), uint16(2500), uint8(6), 0.75)
	f.Add(int64(5), uint16(1700), uint8(4), -1.0)
	f.Add(int64(6), uint16(2999), uint8(7), 2.0)
	f.Add(int64(9), uint16(2500), uint8(6), 0.5)
	f.Add(int64(10), uint16(31), uint8(3), 0.5)
	f.Add(int64(11), uint16(32), uint8(6), -1.5)
	f.Add(int64(12), uint16(79), uint8(5), 0.25)
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
		xs := [][]float64{randomVec(rng, n), randomVec(rng, n)}
		accs := [][]float64{randomVec(rng, n), randomVec(rng, n)}
		for _, ranges := range [][]int32{randomRanges(rng, n), edgeRanges(rng, n), cutRanges(rng, b)} {
			if len(ranges) == 0 {
				continue
			}
			for _, pool := range []*Pool{serial, parallel} {
				pl := planBanded(t, pool, b, ranges)
				for i, x := range xs {
					checkBandedMatchesCSR(t, pool, pl, b, c, ranges, x, nil, 0)
					checkBandedMatchesCSR(t, pool, pl, b, c, ranges, x, slices.Clone(accs[i]), w)
				}
			}
		}
		checkKernelsMatchCSR(t, b, c, xs[0])
	})
}

// checkKernelsMatchCSR runs both band kernels, the Go passes and, where
// it runs, the AVX2 kernel, directly over every segment of b's rows,
// edge rows included, and compares each row bit for bit with c's
// product. The products above go through mulSegment, which runs one
// kernel per machine; this drives the other one too.
func checkKernelsMatchCSR(t testing.TB, b *Banded, c *CSR, x []float64) {
	t.Helper()
	want := make([]float64, b.n)
	if err := c.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func(s *segment, dst, x []float64){"go": b.segmentRowsGo}
	if useAVX2 {
		kernels["avx2"] = b.segmentRowsAVX2
	}
	segs := b.segments(nil, 0, b.n)
	for name, kernel := range kernels {
		dst := make([]float64, b.n)
		for i := range segs {
			kernel(&segs[i], dst, x)
		}
		for r := range dst {
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

// TestBandedAVX2MatchesGo checks the AVX2 band kernel against the Go
// passes bit for bit, calling both directly: 1–8 bands, segments of 0
// to 100 rows (so every mix of 32-row blocks, 8-row blocks, a 4-row
// block and the scalar tail, and every join between them), every start
// row mod 8, band subsets that skip the first band, the last or both,
// and x and band values whose products include ±0, subnormals and ±Inf.
// Rows outside the segment must keep their sentinel. Every segment of
// the whole matrix runs too, so the edge rows' subsets, where the first
// or last bands leave the matrix, are covered. The second half makes
// about half the bands periodic, with periods of 1 to 8 of those
// values, and runs every segment and segments of 0 to 100 rows starting
// at each of the first 8 rows of each periodic run, so the kernels read
// every table phase.
func TestBandedAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the AVX2 band kernel does not run here (not amd64, no AVX2, or a race build)")
	}
	rng := rand.New(rand.NewSource(7))
	const maxLen = 100
	for nb := 1; nb <= MaxBands; nb++ {
		const n = 200
		offs := randomOffsets(rng, 20, nb)
		b, err := NewBanded(n, offs, kernelBands(rng, n, offs))
		if err != nil {
			t.Fatal(err)
		}
		if b.Kernel() != "bands-avx2" {
			t.Fatalf("Kernel() = %q with AVX2 on", b.Kernel())
		}
		for length := 0; length <= maxLen; length++ {
			for start := 0; start < 8; start++ {
				lo := b.lo + start
				hi := lo + length
				if hi > b.hi {
					t.Fatalf("offsets %v: tile [%d, %d) leaves the interior [%d, %d)", b.offs, lo, hi, b.lo, b.hi)
				}
				for _, ks := range [][2]int{{0, nb}, {1, nb}, {0, nb - 1}, {1, nb - 1}} {
					if ks[0] <= ks[1] {
						s := segmentOf(b, lo, hi, ks[0], ks[1])
						checkAVX2MatchesGo(t, b, kernelVec(rng, n), &s)
					}
				}
			}
		}
		x := kernelVec(rng, n)
		for _, s := range b.segments(nil, 0, n) {
			checkAVX2MatchesGo(t, b, x, &s)
		}
	}
	periodic := 0
	for nb := 1; nb <= MaxBands; nb++ {
		const n = 1400
		offs := randomOffsets(rng, 20, nb)
		vals := kernelBands(rng, n, offs)
		for k, o := range offs {
			if rng.Intn(2) == 0 {
				continue
			}
			a, c, p := max(0, -o)+30, min(n, n-o)-30, 1+rng.Intn(maxPeriod)
			for r := a + p; r < c; r++ {
				vals[k][r] = vals[k][r-p]
			}
		}
		b, _ := bandsOf(t, n, offs, vals)
		periodic += b.PeriodicBands()
		x := kernelVec(rng, n)
		for _, s := range b.segments(nil, 0, n) {
			checkAVX2MatchesGo(t, b, x, &s)
		}
		for _, bd := range b.bands {
			if bd.p == 0 {
				continue
			}
			for length := 0; length <= maxLen; length++ {
				for lo := bd.a; lo < bd.a+8; lo++ {
					s := segmentOf(b, lo, min(lo+length, b.tileEnd(lo, b.hi)), 0, nb)
					checkAVX2MatchesGo(t, b, x, &s)
				}
			}
		}
	}
	if periodic == 0 {
		t.Error("no band stored as a period")
	}
}

// segmentOf returns the segment of b's rows [lo, hi) over bands
// [k0, k1), as Banded.segments would cut it but with any band subset.
// The rows must lie in one tile; lo = hi gives an empty segment.
func segmentOf(b *Banded, lo, hi, k0, k1 int) segment {
	s := segment{lo: int32(lo), hi: int32(hi), k0: uint8(k0), k1: uint8(k1)}
	for k := k0; k < k1 && lo < hi; k++ {
		s.v[k-k0] = int32(b.bands[k].index(lo, hi, b.phase(lo)))
		s.x[k-k0] = int32(lo + b.offs[k])
	}
	return s
}

// checkAVX2MatchesGo runs both band kernels over the segment s of b and
// compares every row bit for bit; rows outside the segment must keep
// their sentinel.
func checkAVX2MatchesGo(t *testing.T, b *Banded, x []float64, s *segment) {
	t.Helper()
	want, got := make([]float64, b.n), make([]float64, b.n)
	for i := range want {
		want[i], got[i] = -7, -7
	}
	b.segmentRowsGo(s, want, x)
	b.segmentRowsAVX2(s, got, x)
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("offsets %v, periods %v, segment [%d, %d) of bands [%d, %d): row %d = %v (%#x), Go passes %v (%#x)",
				b.offs, b.Periods(), s.lo, s.hi, s.k0, s.k1, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
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
		"NaN":             func(b *Banded) { b.bands[1].head[10] = math.NaN() },
		"Inf":             func(b *Banded) { b.bands[0].head[20] = math.Inf(-1) },
		"below column 0":  func(b *Banded) { b.bands[0].head[1] = 0.5 },
		"past column n-1": func(b *Banded) { b.bands[2].head[48] = -0.5 },
		"not ascending":   func(b *Banded) { b.offs[0], b.offs[1] = b.offs[1], b.offs[0] },
	} {
		b := fresh()
		corrupt(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted layout", name)
		}
	}

	// A matrix whose middle band repeats 0.5, −0, 2 over its interior.
	periodic := func() *Banded {
		const n = 2000
		vals := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		for r := 2; r < n; r++ {
			vals[0][r] = float64(r)
		}
		for r := range vals[1] {
			vals[1][r] = []float64{0.5, math.Copysign(0, -1), 2}[r%3]
		}
		b, _ := bandsOf(t, n, []int{-2, 0, 3}, vals)
		if b.bands[1].p != 3 {
			t.Fatalf("middle band has period %d, want 3", b.bands[1].p)
		}
		return b
	}
	for name, corrupt := range map[string]func(b *Banded){
		"table off period":  func(b *Banded) { b.bands[1].table[100] = math.Copysign(0, 1) },
		"short table":       func(b *Banded) { b.bands[1].table = b.bands[1].table[:bandTile] },
		"run past interior": func(b *Banded) { b.bands[1].c = b.hi + 1; b.bands[1].tail = b.bands[1].tail[1:] },
		"run as long as its table": func(b *Banded) {
			bd := &b.bands[1]
			bd.tail = make([]float64, b.n-(bd.a+bandTile+b.period))
			bd.c = bd.a + bandTile + b.period
		},
		"period past maxPeriod": func(b *Banded) { b.bands[1].p = maxPeriod + 1 },
		"dense with a table":    func(b *Banded) { b.bands[0].table = b.bands[1].table },
	} {
		b := periodic()
		if err := b.Validate(); err != nil {
			t.Fatalf("well-formed periodic layout: %v", err)
		}
		corrupt(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted layout", name)
		}
	}
}

// TestBandedPeriodBreak: one interior row that breaks a band's period,
// by its value or by the sign of a zero, ends the periodic run there.
// The band keeps the longer side, rows [0, row), as its period, reads
// every row back bit for bit, the breaking row included, and its
// products match the CSR over windows about the break.
func TestBandedPeriodBreak(t *testing.T) {
	const n, brk = 3000, 1800 // brk is a multiple of the period
	period := []float64{0.25, 0, math.Copysign(0, -1)}
	pool := NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		row  int
		v    float64
	}{
		{"value", brk, 0.5},
		{"+0 to -0", brk + 1, math.Copysign(0, -1)},
		{"-0 to +0", brk + 2, 0},
	} {
		v := make([]float64, n)
		for r := range v {
			v[r] = period[r%len(period)]
		}
		v[tc.row] = tc.v
		b, c := bandsOf(t, n, []int{0}, [][]float64{v})
		if bd := b.bands[0]; bd.p != len(period) || bd.a != 0 || bd.c != tc.row {
			t.Errorf("%s at row %d: period %d over rows [%d, %d), want %d over [0, %d)",
				tc.name, tc.row, bd.p, bd.a, bd.c, len(period), tc.row)
		}
		x := randomVec(rng, n)
		for _, ranges := range [][]int32{{0, n}, {brk - 5, brk + 5}, {brk, brk + 700}, {brk - 600, brk}} {
			checkBandedMatchesCSR(t, pool, planBanded(t, pool, b, ranges), b, c, ranges, x, nil, 0)
		}
	}
}

// TestBandedCommonPeriod: the tables of a matrix's periodic bands span
// bandTile + P rows, P the lcm of their periods, so one remainder per
// tile serves them all. Bands of periods 2 and 3 share P = 6; a period-3
// run too short for a 6-row period stays dense and leaves P = 2. Both
// layouts read back every value and match the CSR.
func TestBandedCommonPeriod(t *testing.T) {
	const n = 2000
	pool := NewPool(1)
	defer pool.Close()
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name    string
		run3    int // rows of the period-3 band's run
		periods []int
		period  int
	}{
		{"both periodic", n - 10, []int{2, 3}, 6},
		{"period 3 run too short", bandTile + 5, []int{2, 0}, 2},
	} {
		vals := [][]float64{make([]float64, n), make([]float64, n)}
		for r := 0; r < n; r++ {
			vals[0][r] = []float64{0.5, -1}[r%2]
			vals[1][r] = float64(r) // irregular outside the run
		}
		for r := 5; r < 5+tc.run3; r++ {
			vals[1][r] = []float64{2, math.Copysign(0, -1), 0.25}[r%3]
		}
		vals[1][n-1] = 0 // column n is outside the matrix
		b, c := bandsOf(t, n, []int{0, 1}, vals)
		if got := b.Periods(); !slices.Equal(got, tc.periods) || b.period != tc.period {
			t.Errorf("%s: periods %v, matrix period %d; want %v, %d", tc.name, got, b.period, tc.periods, tc.period)
		}
		for k, bd := range b.bands {
			if bd.p > 0 && len(bd.table) != bandTile+tc.period {
				t.Errorf("%s: band %d has a %d-value table, want %d", tc.name, k, len(bd.table), bandTile+tc.period)
			}
		}
		x := randomVec(rng, n)
		for _, ranges := range [][]int32{{0, n}, cutRanges(rng, b)} {
			checkBandedMatchesCSR(t, pool, planBanded(t, pool, b, ranges), b, c, ranges, x, nil, 0)
		}
	}
}

// TestPeriodicRunThreshold: a band compacts only when its periodic run
// is longer than the table that would replace it, bandTile+p rows, so
// compaction never stores more values than the dense band.
func TestPeriodicRunThreshold(t *testing.T) {
	for p := 1; p <= maxPeriod; p++ {
		for _, run := range []int{bandTile + p, bandTile + p + 1} {
			n := run + 40
			v := make([]float64, n)
			for r := range v {
				v[r] = float64(r + 1) // no period anywhere
			}
			for r := 20; r < 20+run; r++ {
				v[r] = float64((r-20)%p) - 3
			}
			b, _ := bandsOf(t, n, []int{0}, [][]float64{v})
			compact := run > bandTile+p
			if bd := b.bands[0]; (bd.p > 0) != compact || (compact && (bd.p != p || bd.a != 20 || bd.c != 20+run)) {
				t.Errorf("period %d over %d rows: stored with period %d over [%d, %d)", p, run, bd.p, bd.a, bd.c)
			}
			if got := b.StoredValues(); got > n || (compact && got != n-run+bandTile+p) {
				t.Errorf("period %d over %d rows: %d values stored for %d rows", p, run, got, n)
			}
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
		var pl Plan
		if err := pool.Plan(&pl, op, ranges); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%T", op)[len("*sparse."):], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := pool.MulVecPlan(&pl, dst, x, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBandedKernel times one interior segment on each band kernel,
// called directly, with Fig. 8's 5 band offsets and Fig. 10's 6, every
// band dense: 80 and 187 rows, the typical window interval of Fig. 8 at
// Δ = 50 and of Fig. 10 at Δ = 2 mAh, and a whole tile of bandTile
// rows. The avx2 runs skip where that kernel does not run.
func BenchmarkBandedKernel(b *testing.B) {
	for _, fig := range []struct {
		name string
		offs []int
	}{{"fig8", fig8Offsets}, {"fig10", fig10Offsets}} {
		n := 2*bandTile + fig.offs[len(fig.offs)-1] - fig.offs[0]
		rng := rand.New(rand.NewSource(8))
		vals := make([][]float64, len(fig.offs))
		for k, o := range fig.offs {
			vals[k] = make([]float64, n)
			for r := max(0, -o); r < min(n, n-o); r++ {
				vals[k][r] = rng.NormFloat64()
			}
		}
		bm, _ := bandsOf(b, n, fig.offs, vals)
		x, dst := randomVec(rng, n), make([]float64, n)
		for _, rows := range []int{80, 187, bandTile} {
			s := segmentOf(bm, bm.lo, bm.lo+rows, 0, len(fig.offs))
			for _, k := range []struct {
				name   string
				kernel func(s *segment, dst, x []float64)
			}{{"go", bm.segmentRowsGo}, {"avx2", bm.segmentRowsAVX2}} {
				b.Run(fmt.Sprintf("%s/%d/%s", fig.name, rows, k.name), func(b *testing.B) {
					if k.name == "avx2" && !useAVX2 {
						b.Skip("the AVX2 band kernel does not run here")
					}
					b.SetBytes(int64(rows * 8 * (2*len(fig.offs) + 1)))
					for i := 0; i < b.N; i++ {
						k.kernel(&s, dst, x)
					}
				})
			}
		}
	}
}
