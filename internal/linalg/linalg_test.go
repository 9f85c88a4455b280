package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveRealKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveReal(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveRealNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	x, err := SolveReal(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveRealSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveReal(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRealShapeErrors(t *testing.T) {
	if _, err := SolveReal(nil, nil); !errors.Is(err, ErrShape) {
		t.Errorf("empty system: err = %v, want ErrShape", err)
	}
	if _, err := SolveReal([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged system: err = %v, want ErrShape", err)
	}
	if _, err := SolveReal([][]float64{{1}}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("wrong b: err = %v, want ErrShape", err)
	}
}

func TestSolveRealDoesNotModifyInputs(t *testing.T) {
	a := [][]float64{{4, 1}, {1, 3}}
	b := []float64{1, 2}
	if _, err := SolveReal(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 4 || a[1][0] != 1 || b[0] != 1 {
		t.Errorf("inputs modified: a=%v b=%v", a, b)
	}
}

// TestFactorLUReusedAcrossRightHandSides factors once and solves two
// right-hand sides; each must match SolveReal bit for bit, without an
// allocation per solve.
func TestFactorLUReusedAcrossRightHandSides(t *testing.T) {
	a := [][]float64{{1, 2, 0}, {3, -1, 4}, {0, 5, 2}} // needs pivoting
	lu := []float64{1, 2, 0, 3, -1, 4, 0, 5, 2}
	piv := make([]int, 3)
	if err := FactorLU(lu, piv); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 2, 3}, {-4, 0, 7}} {
		want, err := SolveReal(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), b...)
		SolveLU(lu, piv, x)
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Errorf("b=%v: x[%d] = %v, SolveReal gives %v", b, i, x[i], want[i])
			}
		}
	}
	x := make([]float64, 3)
	if n := testing.AllocsPerRun(10, func() { SolveLU(lu, piv, x) }); n != 0 {
		t.Errorf("SolveLU allocates %v times", n)
	}
}

func TestFactorLUErrors(t *testing.T) {
	if err := FactorLU(make([]float64, 3), make([]int, 2)); !errors.Is(err, ErrShape) {
		t.Errorf("3 entries as 2x2: err = %v, want ErrShape", err)
	}
	if err := FactorLU([]float64{1, 2, 2, 4}, make([]int, 2)); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-1 matrix: err = %v, want ErrSingular", err)
	}
}

func TestSolveRealResidualProperty(t *testing.T) {
	// For random well-conditioned systems, the residual A·x - b must be
	// tiny relative to b.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonal dominance keeps conditioning sane
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveReal(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			r := -b[i]
			for j := 0; j < n; j++ {
				r += a[i][j] * x[j]
			}
			if math.Abs(r) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatCMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatC(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	id := IdentityC(4)
	left := id.Mul(m)
	right := m.Mul(id)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if left.At(i, j) != m.At(i, j) || right.At(i, j) != m.At(i, j) {
				t.Fatalf("identity product differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestExpZeroMatrix(t *testing.T) {
	e := NewMatC(3).Exp()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Errorf("exp(0)[%d][%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestExpDiagonal(t *testing.T) {
	// exp(diag(d)) = diag(exp(d)), including complex entries.
	d := []complex128{complex(-1, 0), complex(0.5, 2), complex(-3, -1)}
	m := NewMatC(3)
	for i, v := range d {
		m.Set(i, i, v)
	}
	e := m.Exp()
	for i, v := range d {
		if cmplx.Abs(e.At(i, i)-cmplx.Exp(v)) > 1e-13*cmplx.Abs(cmplx.Exp(v)) {
			t.Errorf("diag %d: %v, want %v", i, e.At(i, i), cmplx.Exp(v))
		}
		for j := range d {
			if i != j && cmplx.Abs(e.At(i, j)) > 1e-14 {
				t.Errorf("off-diagonal (%d,%d) = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestExpNilpotent(t *testing.T) {
	// For the nilpotent N = [[0,1],[0,0]], e^(aN) = I + aN exactly.
	m := NewMatC(2)
	m.Set(0, 1, complex(3.7, -0.2))
	e := m.Exp()
	if cmplx.Abs(e.At(0, 0)-1) > 1e-14 || cmplx.Abs(e.At(1, 1)-1) > 1e-14 {
		t.Errorf("diagonal not 1: %v, %v", e.At(0, 0), e.At(1, 1))
	}
	if cmplx.Abs(e.At(0, 1)-complex(3.7, -0.2)) > 1e-13 {
		t.Errorf("e[0][1] = %v", e.At(0, 1))
	}
	if cmplx.Abs(e.At(1, 0)) > 1e-14 {
		t.Errorf("e[1][0] = %v", e.At(1, 0))
	}
}

func TestExpAdditivityCommuting(t *testing.T) {
	// exp(A)·exp(A) = exp(2A) for any A (A commutes with itself).
	rng := rand.New(rand.NewSource(2))
	a := NewMatC(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	twice := a.Clone().Scale(2).Exp()
	squared := a.Exp()
	squared = squared.Mul(squared)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if cmplx.Abs(twice.At(i, j)-squared.At(i, j)) > 1e-10*(1+cmplx.Abs(twice.At(i, j))) {
				t.Fatalf("(%d,%d): exp(2A)=%v, exp(A)^2=%v", i, j, twice.At(i, j), squared.At(i, j))
			}
		}
	}
}

func TestExpGeneratorRowSums(t *testing.T) {
	// For a real generator matrix Q (rows sum to 0), exp(Qt) is
	// stochastic: rows sum to 1 and entries are non-negative.
	q := NewMatC(3)
	rates := [][]float64{
		{-3, 2, 1},
		{6, -6, 0},
		{0, 2, -2},
	}
	for i := range rates {
		for j := range rates[i] {
			q.Set(i, j, complex(rates[i][j]*0.7, 0)) // t = 0.7
		}
	}
	p := q.Exp()
	for i := 0; i < 3; i++ {
		sum := complex128(0)
		for j := 0; j < 3; j++ {
			v := p.At(i, j)
			if real(v) < -1e-12 || math.Abs(imag(v)) > 1e-12 {
				t.Errorf("P[%d][%d] = %v not a probability", i, j, v)
			}
			sum += v
		}
		if cmplx.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

func TestMulVecLeft(t *testing.T) {
	m := NewMatC(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	out, err := m.MulVecLeft([]complex128{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 31 || out[1] != 42 {
		t.Errorf("x·m = %v, want [31 42]", out)
	}
	if _, err := m.MulVecLeft([]complex128{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short vector: err = %v, want ErrShape", err)
	}
}

func BenchmarkExp6x6(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatC(6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Exp()
	}
}

func BenchmarkSolveReal10(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 10
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 10
	}
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveReal(a, vec); err != nil {
			b.Fatal(err)
		}
	}
}
