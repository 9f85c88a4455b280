package foxglynn

import (
	"errors"
	"math"
	"testing"
)

func assertFiniteWeights(t *testing.T, w *Weights) {
	t.Helper()
	if w.Left < 0 || w.Right < w.Left {
		t.Fatalf("bad window [%d, %d]", w.Left, w.Right)
	}
	if len(w.Prob) != w.Right-w.Left+1 {
		t.Fatalf("window [%d,%d] but %d weights", w.Left, w.Right, len(w.Prob))
	}
	for i, p := range w.Prob {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			t.Fatalf("weight %d (n=%d) is %v", i, w.Left+i, p)
		}
	}
	if m := mass(w); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mass %v, want 1", m)
	}
}

// TestComputeTinyLambda drives qt down to the smallest positive
// float64s. The weights must stay finite and normalised — underflow in
// the recursion would silently zero the whole transient solution.
func TestComputeTinyLambda(t *testing.T) {
	for _, lambda := range []float64{1e-300, 5e-324, 1e-15, 1e-6} {
		w, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatalf("Compute(%v): %v", lambda, err)
		}
		assertFiniteWeights(t, w)
		// Nearly all mass sits at n=0 for vanishing lambda.
		if p0 := w.At(0); p0 < 0.999 {
			t.Fatalf("Compute(%v): weight at 0 is %v, want ≈1", lambda, p0)
		}
	}
}

// TestComputeHugeLambda covers the paper's largest windows (q·t ≈
// 4.6·10⁴) and an order-of-magnitude beyond. The naive pmf overflows
// above λ ≈ 700, so finite normalised output here certifies the
// mode-relative recursion.
func TestComputeHugeLambda(t *testing.T) {
	for _, lambda := range []float64{4.6e4, 1e6, 1e7} {
		w, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatalf("Compute(%v): %v", lambda, err)
		}
		assertFiniteWeights(t, w)
		mode := int(math.Floor(lambda))
		if mode < w.Left || mode > w.Right {
			t.Fatalf("Compute(%v): mode %d outside window [%d,%d]", lambda, mode, w.Left, w.Right)
		}
		// The window is O(sqrt(lambda)) wide, not O(lambda).
		if width := float64(w.Right - w.Left + 1); width > 60*math.Sqrt(lambda) {
			t.Fatalf("Compute(%v): window width %v disproportionate to sqrt(lambda)", lambda, width)
		}
	}
}

// TestComputeRejectsNonFinite pins the explicit-error contract for NaN,
// ±Inf, and negative rates.
func TestComputeRejectsNonFinite(t *testing.T) {
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		w, err := Compute(lambda, 1e-12)
		if !errors.Is(err, ErrBadLambda) {
			t.Fatalf("Compute(%v) = %v, %v; want ErrBadLambda", lambda, w, err)
		}
	}
}

// TestLogPMFFinite guards the anchor helper at the extremes used above.
func TestLogPMFFinite(t *testing.T) {
	for _, lambda := range []float64{1e-300, 1, 4.6e4, 1e7} {
		n := int(math.Floor(lambda))
		lp := logPMF(n, lambda)
		if math.IsNaN(lp) || lp > 0 {
			t.Fatalf("logPMF(%d, %v) = %v", n, lambda, lp)
		}
	}
}
