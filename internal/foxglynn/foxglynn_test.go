package foxglynn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// mass returns the total weight inside the window (1 up to rounding,
// because the window is renormalised).
func mass(w *Weights) float64 {
	sum := 0.0
	for _, p := range w.Prob {
		sum += p
	}
	return sum
}

// logPMF returns the exact log of the Poisson(lambda) pmf at n, the
// reference the recursion anchor is checked against. Non-positive
// lambda is treated as the degenerate rate-zero process.
func logPMF(n int, lambda float64) float64 {
	if lambda <= 0 {
		if n == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	nf := float64(n)
	lg, _ := math.Lgamma(nf + 1)
	return nf*math.Log(lambda) - lambda - lg
}

func TestZeroLambda(t *testing.T) {
	w, err := Compute(0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if w.Left != 0 || w.Right != 0 || w.At(0) != 1 {
		t.Errorf("Compute(0) = [%d,%d] At(0)=%v, want point mass at 0", w.Left, w.Right, w.At(0))
	}
	if w.At(1) != 0 || w.At(-1) != 0 {
		t.Errorf("weights outside window must be 0")
	}
}

func TestRejectsBadLambda(t *testing.T) {
	for _, lam := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Compute(lam, 1e-10); !errors.Is(err, ErrBadLambda) {
			t.Errorf("Compute(%v): err = %v, want ErrBadLambda", lam, err)
		}
	}
}

func TestMatchesExactPMFSmall(t *testing.T) {
	// For small lambda compare directly against exp(logPMF).
	for _, lambda := range []float64{0.1, 1, 2.5, 10, 30} {
		w, err := Compute(lambda, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		for n := w.Left; n <= w.Right; n++ {
			exact := math.Exp(logPMF(n, lambda))
			if math.Abs(w.At(n)-exact) > 1e-10 {
				t.Errorf("lambda=%v n=%d: weight %v, exact %v", lambda, n, w.At(n), exact)
			}
		}
	}
}

func TestMassIsOne(t *testing.T) {
	for _, lambda := range []float64{0.01, 1, 100, 5000, 48000} {
		w, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if m := mass(w); math.Abs(m-1) > 1e-12 {
			t.Errorf("lambda=%v: mass = %v, want 1", lambda, m)
		}
	}
}

func TestWindowCoversBulk(t *testing.T) {
	// The window must contain the mode and extend several standard
	// deviations either side.
	for _, lambda := range []float64{10, 1000, 48000} {
		w, err := Compute(lambda, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		mode := int(lambda)
		if w.Left > mode || w.Right < mode {
			t.Fatalf("lambda=%v: window [%d,%d] misses mode %d", lambda, w.Left, w.Right, mode)
		}
		sd := math.Sqrt(lambda)
		if float64(w.Right-w.Left) < 6*sd {
			t.Errorf("lambda=%v: window width %d < 6 standard deviations %v",
				lambda, w.Right-w.Left, 6*sd)
		}
	}
}

func TestTailMassBelowEps(t *testing.T) {
	// Discarded mass = 1 - sum of exact pmf over window.
	for _, tc := range []struct{ lambda, eps float64 }{
		{5, 1e-6}, {200, 1e-8}, {10000, 1e-10},
	} {
		w, err := Compute(tc.lambda, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		exact := 0.0
		for n := w.Left; n <= w.Right; n++ {
			exact += math.Exp(logPMF(n, tc.lambda))
		}
		if tail := 1 - exact; tail > tc.eps {
			t.Errorf("lambda=%v eps=%v: discarded tail %v", tc.lambda, tc.eps, tail)
		}
	}
}

func TestMeanAndVarianceProperty(t *testing.T) {
	// The truncated distribution's mean and variance must approximate
	// lambda for any valid rate.
	f := func(raw float64) bool {
		lambda := math.Abs(math.Mod(raw, 3000)) + 0.5
		w, err := Compute(lambda, 1e-13)
		if err != nil {
			return false
		}
		mean, second := 0.0, 0.0
		for n := w.Left; n <= w.Right; n++ {
			p := w.At(n)
			mean += float64(n) * p
			second += float64(n) * float64(n) * p
		}
		variance := second - mean*mean
		return math.Abs(mean-lambda) < 1e-6*(1+lambda) &&
			math.Abs(variance-lambda) < 1e-4*(1+lambda)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDefaultEpsilon(t *testing.T) {
	// eps <= 0 and eps >= 1 fall back to a sane default rather than
	// failing or producing an empty window.
	for _, eps := range []float64{0, -3, 1, 7} {
		w, err := Compute(50, eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mass(w)-1) > 1e-12 {
			t.Errorf("eps=%v: mass %v", eps, mass(w))
		}
	}
}

func TestLogPMFAgainstRecursion(t *testing.T) {
	// pmf(n+1)/pmf(n) = lambda/(n+1) must hold for logPMF.
	lambda := 37.5
	for n := 0; n < 200; n++ {
		ratio := math.Exp(logPMF(n+1, lambda) - logPMF(n, lambda))
		want := lambda / float64(n+1)
		if math.Abs(ratio-want) > 1e-9*want {
			t.Fatalf("n=%d: ratio %v, want %v", n, ratio, want)
		}
	}
}

func BenchmarkComputeSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compute(100, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputePaperScale(b *testing.B) {
	// q·t ≈ 4.6e4 is the largest uniformisation rate reported in §6.1.
	for i := 0; i < b.N; i++ {
		if _, err := Compute(46000, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
