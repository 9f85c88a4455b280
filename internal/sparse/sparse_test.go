package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"batlife/internal/check"
)

// buildRandom assembles a random rows×cols matrix with the given fill
// density and returns both the CSR form and a dense reference.
func buildRandom(t *testing.T, rng *rand.Rand, rows, cols int, density float64) (*CSR, [][]float64) {
	t.Helper()
	b := NewBuilder(rows, cols, int(float64(rows*cols)*density)+1)
	dense := make([][]float64, rows)
	for r := range dense {
		dense[r] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				b.Add(r, c, v)
				dense[r][c] += v
			}
		}
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m, dense
}

// at returns the value at (row, col); absent entries are zero.
func at(m *CSR, row, col int) float64 {
	if row < 0 || row >= m.rows || col < 0 || col >= m.cols {
		return 0
	}
	lo, hi := int(m.rowPtr[row]), int(m.rowPtr[row+1])
	idx := lo + sort.Search(hi-lo, func(i int) bool { return m.colIdx[lo+i] >= int32(col) })
	if idx < hi && m.colIdx[idx] == int32(col) {
		return m.vals[idx]
	}
	return 0
}

// denseOf returns the matrix as a dense row-major slice of rows.
func denseOf(m *CSR) [][]float64 {
	d := make([][]float64, m.rows)
	for r := range d {
		d[r] = make([]float64, m.cols)
	}
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			d[r][m.colIdx[i]] = m.vals[i]
		}
	}
	return d
}

func TestBuilderFreezeBasic(t *testing.T) {
	b := NewBuilder(2, 3, 0)
	b.Add(0, 0, 1)
	b.Add(0, 2, 2)
	b.Add(1, 1, -3)
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if m.Rows() != 2 || m.Cols() != 3 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz = %d x %d / %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if got := at(m, 0, 2); got != 2 {
		t.Errorf("At(0,2) = %v, want 2", got)
	}
	if got := at(m, 1, 0); got != 0 {
		t.Errorf("At(1,0) = %v, want 0", got)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(1, 1, 0)
	b.Add(0, 0, 1.5)
	b.Add(0, 0, 2.5)
	b.Add(0, 0, -4.0)
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	// 1.5 + 2.5 - 4 = 0: the merged entry must be dropped entirely.
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0 after cancelling duplicates", m.NNZ())
	}
}

func TestBuilderSkipsZeros(t *testing.T) {
	b := NewBuilder(4, 4, 0)
	b.Add(1, 1, 0)
	if len(b.entries) != 0 {
		t.Errorf("%d entries after adding zero, want 0", len(b.entries))
	}
}

func TestFreezeRejectsOutOfRange(t *testing.T) {
	for _, coords := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}} {
		b := NewBuilder(2, 3, 0)
		b.Add(coords[0], coords[1], 1)
		if _, err := b.Freeze(); !errors.Is(err, ErrShape) {
			t.Errorf("Freeze with entry %v: err = %v, want ErrShape", coords, err)
		}
	}
}

func TestFreezeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Add declares //numlint:requires finite(v); with debugchecks on,
		// the generated contract shim panics at the Add call, before
		// Freeze gets a chance to report the entry.
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					if !check.Enabled {
						t.Fatalf("Add(%v) panicked with checks disabled: %v", v, r)
					}
					err = fmt.Errorf("contract: %v", r)
				}
			}()
			b := NewBuilder(1, 1, 0)
			b.Add(0, 0, v)
			_, err = b.Freeze()
			return err
		}()
		if err == nil {
			t.Errorf("Freeze with value %v: want error", v)
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m, dense := buildRandom(t, rng, rows, cols, 0.3)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, rows)
		if err := m.MulVec(got, x); err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		for r := 0; r < rows; r++ {
			want := 0.0
			for c := 0; c < cols; c++ {
				want += dense[r][c] * x[c]
			}
			if math.Abs(got[r]-want) > 1e-10 {
				t.Fatalf("trial %d row %d: got %v, want %v", trial, r, got[r], want)
			}
		}
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, dense := buildRandom(t, rng, 17, 23, 0.25)
	tt := m.Transpose().Transpose()
	if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
		t.Fatalf("double transpose changed shape or nnz")
	}
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if at(tt, r, c) != dense[r][c] {
				t.Fatalf("(%d,%d): %v != %v", r, c, at(tt, r, c), dense[r][c])
			}
		}
	}
}

func TestVecMulAgainstDense(t *testing.T) {
	// x·M, the row vector times matrix product, is formed as
	// Transpose(M)·x and checked against the dense product.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m, dense := buildRandom(t, rng, rows, cols, 0.3)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]float64, cols)
		if err := m.Transpose().MulVec(got, x); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cols; c++ {
			want := 0.0
			for r := 0; r < rows; r++ {
				want += x[r] * dense[r][c]
			}
			if math.Abs(got[c]-want) > 1e-10 {
				t.Fatalf("trial %d col %d: got %v, want %v", trial, c, got[c], want)
			}
		}
	}
}

func TestTransposeVecMulEquivalence(t *testing.T) {
	// x·M must equal Transpose(M)·x — this identity is what the
	// uniformisation engine relies on. x·M is scattered over M's rows.
	rng := rand.New(rand.NewSource(4))
	m, _ := buildRandom(t, rng, 31, 29, 0.2)
	mt := m.Transpose()
	x := make([]float64, m.Rows())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a := make([]float64, m.Cols())
	for r := 0; r < m.Rows(); r++ {
		m.Row(r, func(c int, v float64) { a[c] += v * x[r] })
	}
	bv := make([]float64, m.Cols())
	if err := mt.MulVec(bv, x); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-bv[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %v vs %v", i, a[i], bv[i])
		}
	}
}

func TestMulVecShapeErrors(t *testing.T) {
	m, err := NewBuilder(3, 4, 0).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MulVec(make([]float64, 3), make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec wrong x len: %v, want ErrShape", err)
	}
	if err := NewPool(2).MulVec(m, make([]float64, 2), make([]float64, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("Pool.MulVec wrong dst len: %v, want ErrShape", err)
	}
}

func TestRowSumAndMaxAbsDiagonal(t *testing.T) {
	b := NewBuilder(3, 3, 0)
	b.Add(0, 0, -2)
	b.Add(0, 1, 2)
	b.Add(1, 1, -7)
	b.Add(1, 0, 3)
	b.Add(1, 2, 4)
	b.Add(2, 2, -0.5)
	b.Add(2, 0, 0.5)
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		s := 0.0
		m.Row(r, func(_ int, v float64) { s += v })
		if math.Abs(s) > 1e-15 {
			t.Errorf("row %d sums to %v, want 0", r, s)
		}
	}
	if got := m.MaxAbsDiagonal(); got != 7 {
		t.Errorf("MaxAbsDiagonal = %v, want 7", got)
	}
}

func TestRowIteration(t *testing.T) {
	b := NewBuilder(2, 4, 0)
	b.Add(1, 3, 5)
	b.Add(1, 0, 7)
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var cols []int
	var vals []float64
	m.Row(1, func(c int, v float64) {
		cols = append(cols, c)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 3 || vals[0] != 7 || vals[1] != 5 {
		t.Errorf("Row(1) iterated cols=%v vals=%v", cols, vals)
	}
	count := 0
	m.Row(0, func(int, float64) { count++ })
	if count != 0 {
		t.Errorf("Row(0) iterated %d entries, want 0", count)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, dense := buildRandom(t, rng, 9, 11, 0.4)
	got := denseOf(m)
	for r := range dense {
		for c := range dense[r] {
			if got[r][c] != dense[r][c] {
				t.Fatalf("(%d,%d): %v != %v", r, c, got[r][c], dense[r][c])
			}
		}
	}
}

// TestMulVecLinearityProperty checks M(ax+by) = a·Mx + b·My on random
// matrices via testing/quick.
func TestMulVecLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := buildRandom(t, rng, 13, 13, 0.3)
	f := func(seed int64, a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Clamp scalars to keep floating-point comparison meaningful.
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, 13)
		y := make([]float64, 13)
		comb := make([]float64, 13)
		for i := range x {
			x[i] = r.NormFloat64()
			y[i] = r.NormFloat64()
			comb[i] = a*x[i] + b*y[i]
		}
		mx := make([]float64, 13)
		my := make([]float64, 13)
		mc := make([]float64, 13)
		if m.MulVec(mx, x) != nil || m.MulVec(my, y) != nil || m.MulVec(mc, comb) != nil {
			return false
		}
		for i := range mc {
			if math.Abs(mc[i]-(a*mx[i]+b*my[i])) > 1e-8*(1+math.Abs(mc[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMulVecSerial times one product on a 200k-row random matrix
// with four entries a row.
func BenchmarkMulVecSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	rows := 200000
	bu := NewBuilder(rows, rows, rows*4)
	for r := 0; r < rows; r++ {
		for k := 0; k < 4; k++ {
			bu.Add(r, rng.Intn(rows), rng.Float64())
		}
	}
	m, err := bu.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := make([]float64, rows)
	b.ReportMetric(float64(m.NNZ()), "nnz")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVec(dst, x); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMulVecZeroAlloc backs the //numlint:hotpath annotation on MulVec:
// the serial SpMV kernel must not allocate per call, since
// uniformisation drives it once per Taylor term per time point.
func TestMulVecZeroAlloc(t *testing.T) {
	b := NewBuilder(64, 64, 0)
	for i := 0; i < 64; i++ {
		b.Add(i, i, 2)
		b.Add(i, (i+1)%64, -1)
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	x := make([]float64, 64)
	dst := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.MulVec(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MulVec allocates %v per run, want 0", allocs)
	}
}
