package ctmc

import (
	"math"
	"math/rand"
)

// Sampler draws trajectories from a chain. It is not safe for concurrent
// use; create one Sampler per goroutine.
type Sampler struct {
	chain *Chain
	rng   *rand.Rand
	// Per-state jump distributions: succ[i] lists successor states,
	// cum[i] the matching cumulative probabilities.
	succ [][]int
	cum  [][]float64
}

// NewSampler returns a deterministic Sampler seeded with seed.
func NewSampler(c *Chain, seed int64) *Sampler {
	n := c.NumStates()
	s := &Sampler{
		chain: c,
		rng:   rand.New(rand.NewSource(seed)),
		succ:  make([][]int, n),
		cum:   make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		qi := c.ExitRate(i)
		if qi == 0 {
			continue
		}
		c.Generator().Row(i, func(col int, v float64) {
			if col == i {
				return
			}
			s.succ[i] = append(s.succ[i], col)
			s.cum[i] = append(s.cum[i], v/qi)
		})
		for k := 1; k < len(s.cum[i]); k++ {
			s.cum[i][k] += s.cum[i][k-1]
		}
	}
	return s
}

// Sojourn samples the holding time in state i. It returns +Inf for
// absorbing states.
func (s *Sampler) Sojourn(i int) float64 {
	qi := s.chain.ExitRate(i)
	if qi == 0 {
		return math.Inf(1)
	}
	return s.rng.ExpFloat64() / qi
}

// Next samples the successor of state i. Calling Next on an absorbing
// state returns i itself.
func (s *Sampler) Next(i int) int {
	succ := s.succ[i]
	if len(succ) == 0 {
		return i
	}
	u := s.rng.Float64()
	for k, c := range s.cum[i] {
		if u <= c {
			return succ[k]
		}
	}
	return succ[len(succ)-1]
}

// InitialState samples from the initial distribution alpha.
func (s *Sampler) InitialState(alpha []float64) int {
	u := s.rng.Float64()
	acc := 0.0
	for i, a := range alpha {
		acc += a
		if u <= acc {
			return i
		}
	}
	return len(alpha) - 1
}

// Step is one jump of a trajectory: the state occupied and for how long.
type Step struct {
	State   int
	Sojourn float64
}

// Trajectory samples the chain from a state drawn from alpha until
// horizon time has elapsed or an absorbing state is entered. The last
// step is truncated at the horizon.
//
//numlint:ignore testonly Monte-Carlo reference of the performability tests
func (s *Sampler) Trajectory(alpha []float64, horizon float64) []Step {
	var steps []Step
	state := s.InitialState(alpha)
	elapsed := 0.0
	for elapsed < horizon {
		d := s.Sojourn(state)
		if math.IsInf(d, 1) || elapsed+d >= horizon {
			steps = append(steps, Step{State: state, Sojourn: horizon - elapsed})
			return steps
		}
		steps = append(steps, Step{State: state, Sojourn: d})
		elapsed += d
		state = s.Next(state)
	}
	return steps
}
