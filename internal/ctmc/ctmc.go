// Package ctmc implements continuous-time Markov chains: construction
// and validation of generator matrices, steady-state and transient
// analysis, and trajectory sampling.
//
// The package serves two distinct scales. Workload models (Section 4.3
// of the paper) have a handful of states and are handled through the
// Chain type. The expanded chains produced by the Markovian
// approximation (Section 5) have up to millions of states; for those the
// transient engine operates directly on sparse generators and is shared
// by both scales. NewUniformized builds a chain's reusable operator —
// the uniformisation constant q = 1.02·max exit rate and Pᵀ — once, and
// Uniformized.Transient solves on it; TransientFunctional and
// TransientDistributions are the one-shot forms, and PiecewiseTransient
// chains operators over the phases of a time-inhomogeneous schedule.
// Every TransientOptions field is per call: the truncation bound
// Epsilon, the SpMV Pool, an iteration budget, a cancelling Context,
// steady-state detection, a progress callback and a telemetry registry.
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/check"
	"batlife/internal/linalg"
	"batlife/internal/sparse"
)

// ErrInvalidChain reports a malformed generator or distribution.
var ErrInvalidChain = errors.New("ctmc: invalid chain")

// Builder assembles a CTMC from named states and transitions.
// The zero value is ready to use.
type Builder struct {
	names   []string
	index   map[string]int
	entries []transition
}

type transition struct {
	from, to int
	rate     float64
}

// State adds (or looks up) a state by name and returns its index.
func (b *Builder) State(name string) int {
	if b.index == nil {
		b.index = make(map[string]int)
	}
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	return i
}

// Transition adds a transition between named states with the given rate.
// Rates must be positive and finite; violations surface at Build time.
func (b *Builder) Transition(from, to string, rate float64) {
	b.entries = append(b.entries, transition{from: b.State(from), to: b.State(to), rate: rate})
}

// Build validates the accumulated model and returns the chain.
func (b *Builder) Build() (*Chain, error) {
	n := len(b.names)
	if n == 0 {
		return nil, fmt.Errorf("%w: no states", ErrInvalidChain)
	}
	sb := sparse.NewBuilder(n, n, len(b.entries)*2)
	for _, tr := range b.entries {
		if tr.rate <= 0 || math.IsNaN(tr.rate) || math.IsInf(tr.rate, 0) {
			return nil, fmt.Errorf("%w: transition %s -> %s has rate %v",
				ErrInvalidChain, b.names[tr.from], b.names[tr.to], tr.rate)
		}
		if tr.from == tr.to {
			return nil, fmt.Errorf("%w: self-loop on state %s", ErrInvalidChain, b.names[tr.from])
		}
		sb.Add(tr.from, tr.to, tr.rate)
		sb.Add(tr.from, tr.from, -tr.rate)
	}
	gen, err := sb.Freeze()
	if err != nil {
		return nil, fmt.Errorf("ctmc: freeze generator: %w", err)
	}
	return NewChain(append([]string(nil), b.names...), gen)
}

// Chain is an immutable CTMC with named states.
type Chain struct {
	names []string
	gen   *sparse.CSR
	exit  []float64 // exit rate q_i = -Q[i][i]
}

// NewChain wraps a generator matrix, validating that it is a proper
// infinitesimal generator (non-negative off-diagonal, rows sum to zero).
func NewChain(names []string, gen *sparse.CSR) (*Chain, error) {
	n := gen.Rows()
	if gen.Cols() != n {
		return nil, fmt.Errorf("%w: generator is %dx%d", ErrInvalidChain, gen.Rows(), gen.Cols())
	}
	if names != nil && len(names) != n {
		return nil, fmt.Errorf("%w: %d names for %d states", ErrInvalidChain, len(names), n)
	}
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("s%d", i)
		}
	}
	exit := make([]float64, n)
	for r := 0; r < n; r++ {
		var diag, offSum float64
		bad := false
		gen.Row(r, func(c int, v float64) {
			if c == r {
				diag = v
				return
			}
			if v < 0 {
				bad = true
			}
			offSum += v
		})
		if bad {
			return nil, fmt.Errorf("%w: negative off-diagonal rate in row %d (%s)",
				ErrInvalidChain, r, names[r])
		}
		if math.Abs(diag+offSum) > 1e-9*(1+offSum) {
			return nil, fmt.Errorf("%w: row %d (%s) sums to %v, want 0",
				ErrInvalidChain, r, names[r], diag+offSum)
		}
		exit[r] = -diag
	}
	return &Chain{names: names, gen: gen, exit: exit}, nil
}

// NumStates reports the number of states.
func (c *Chain) NumStates() int { return len(c.exit) }

// Name returns the name of state i.
func (c *Chain) Name(i int) string { return c.names[i] }

// Index returns the index of the named state, or -1.
func (c *Chain) Index(name string) int {
	for i, n := range c.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Generator returns the generator matrix. Callers must not modify it.
func (c *Chain) Generator() *sparse.CSR { return c.gen }

// ExitRate returns q_i, the total rate out of state i.
func (c *Chain) ExitRate(i int) float64 { return c.exit[i] }

// IsAbsorbing reports whether state i has no outgoing transitions.
func (c *Chain) IsAbsorbing(i int) bool { return c.exit[i] == 0 }

// SteadyState solves πQ = 0, Σπ = 1 for an irreducible chain using a
// dense LU solve; it is intended for workload-scale models.
func (c *Chain) SteadyState() ([]float64, error) {
	n := c.NumStates()
	if n > 4096 {
		return nil, fmt.Errorf("ctmc: steady state of %d states exceeds dense solver limit", n)
	}
	// Solve Qᵀπ = 0 with the last equation replaced by Σπ = 1.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for r := 0; r < n; r++ {
		c.gen.Row(r, func(col int, v float64) {
			a[col][r] = v
		})
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1
	pi, err := linalg.SolveReal(a, b)
	if err != nil {
		return nil, fmt.Errorf("ctmc: steady state (chain may be reducible): %w", err)
	}
	for i, p := range pi {
		if p < -1e-9 {
			return nil, fmt.Errorf("%w: steady-state probability %v for state %s",
				ErrInvalidChain, p, c.names[i])
		}
		if p < 0 {
			pi[i] = 0
		}
	}
	// Σπ = 1 is an equation of the solve; after clamping the residual
	// negatives, non-negativity is the remaining invariant to assert.
	check.NonNegative("ctmc.SteadyState", pi)
	return pi, nil
}

// Transient returns the state distribution at each requested time,
// starting from the initial distribution alpha.
func (c *Chain) Transient(alpha []float64, times []float64, opts TransientOptions) (*Result, error) {
	return TransientDistributions(c.gen, alpha, times, opts)
}

// UniformDistribution returns the uniform initial distribution: n
// entries of 1/n sum to 1 by construction.
//
//numlint:ensures normalized
func (c *Chain) UniformDistribution() []float64 {
	n := c.NumStates()
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	numlintContract_Chain_UniformDistribution_ensures(alpha)
	return alpha
}

// PointDistribution returns the distribution concentrated on state i:
// unit mass on a single coordinate by construction.
//
//numlint:ensures normalized
func (c *Chain) PointDistribution(i int) []float64 {
	alpha := make([]float64, c.NumStates())
	alpha[i] = 1
	numlintContract_Chain_PointDistribution_ensures(alpha)
	return alpha
}
