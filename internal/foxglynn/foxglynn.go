// Package foxglynn computes truncated, normalised Poisson probability
// weights for uniformisation, in the style of Fox and Glynn's algorithm
// (CACM 1988).
//
// Uniformisation expresses the transient solution of a CTMC as
//
//	π(t) = Σ_{n=0}^∞ ψ(n; q·t) · α·P^n,
//
// where ψ(n; λ) is the Poisson(λ) probability mass function. The series
// is truncated to a window [Left, Right] whose discarded tail mass is at
// most a caller-chosen ε. Weights are computed by the classic recursion
// outward from the Poisson mode — where the pmf is largest — with the
// anchor value obtained in log space, so the computation neither
// underflows nor overflows even for λ in the tens of thousands (the
// paper's experiments reach q·t ≈ 4.6·10⁴).
package foxglynn

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/check"
)

// ErrBadLambda reports a non-finite or negative rate.
var ErrBadLambda = errors.New("foxglynn: lambda must be finite and non-negative")

// Weights holds the truncated, normalised Poisson distribution.
type Weights struct {
	// Left and Right delimit the inclusive truncation window.
	Left, Right int
	// Prob[i] is the normalised Poisson probability of n = Left + i.
	Prob []float64
}

// At returns the weight of n, or zero outside the window.
func (w *Weights) At(n int) float64 {
	if n < w.Left || n > w.Right {
		return 0
	}
	return w.Prob[n-w.Left]
}

// Compute returns Poisson(lambda) weights whose truncated tail mass is
// at most eps. eps must be in (0, 1); values <= 0 default to 1e-12.
func Compute(lambda, eps float64) (*Weights, error) {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadLambda, lambda)
	}
	if eps <= 0 || eps >= 1 {
		eps = 1e-12
	}
	if lambda == 0 {
		return &Weights{Left: 0, Right: 0, Prob: []float64{1}}, nil
	}

	mode := int(math.Floor(lambda))
	// Unnormalised weights relative to the mode. The pmf decays at
	// least geometrically a few standard deviations away from the mode,
	// so scanning outward until the relative weight falls below
	// eps/(window guess) terminates quickly.
	cut := eps / (8 * (math.Sqrt(lambda) + 10))

	// Scan downward from the mode.
	down := []float64{1}
	v := 1.0
	for n := mode; n > 0; n-- {
		v *= float64(n) / lambda
		if v < cut {
			break
		}
		down = append(down, v)
	}
	left := mode - (len(down) - 1)

	// Scan upward from the mode.
	var up []float64
	v = 1.0
	for n := mode + 1; ; n++ {
		v *= lambda / float64(n)
		if v < cut {
			break
		}
		up = append(up, v)
	}
	right := mode + len(up)

	prob := make([]float64, right-left+1)
	for i, d := range down {
		prob[mode-left-i] = d
	}
	for i, u := range up {
		prob[mode-left+1+i] = u
	}

	prob = normalize(prob)
	return &Weights{Left: left, Right: right, Prob: prob}, nil
}

// normalize scales the relative weights into a probability vector.
// Summing relative weights and dividing is numerically equivalent to
// Fox–Glynn's W-scaling and avoids computing the absolute pmf anywhere
// except implicitly.
//
//numlint:ensures normalized
func normalize(prob []float64) []float64 {
	sum := 0.0
	for _, p := range prob {
		sum += p
	}
	inv := 1 / sum
	for i := range prob {
		prob[i] *= inv
	}
	check.Probabilities("foxglynn.Compute weights", prob)
	return prob
}
