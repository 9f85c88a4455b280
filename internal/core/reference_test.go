package core

import (
	"math"
	"testing"

	"batlife/internal/mrm"
	"batlife/internal/sparse"
)

// referenceQ builds Q* and α* of a discharge-only KiBaMRM straight from
// §5.2, one grid state (i, j1, j2) at a time, in the documented layout
// (j1·n2 + j2)·N + i. It covers no charging; it exists only so Build
// has a second, separately written construction to be compared against.
func referenceQ(t *testing.T, m mrm.KiBaMRM, delta float64) (*sparse.CSR, []float64) {
	t.Helper()
	c, k := m.Battery.C, m.Battery.K
	n := m.Workload.NumStates()
	n1 := int(math.Round(c*m.Battery.Capacity/delta)) + 1
	n2 := int(math.Round((1-c)*m.Battery.Capacity/delta)) + 1
	idx := func(i, j1, j2 int) int { return (j1*n2+j2)*n + i }

	// The battery starts full: a1 = c·C lies in ((n1−2)Δ, (n1−1)Δ], and
	// likewise a2 unless there is no bound well.
	j2full := max(n2-2, 0)
	alpha := make([]float64, n*n1*n2)
	for i, p := range m.Initial {
		alpha[idx(i, n1-2, j2full)] = p
	}

	b := sparse.NewBuilder(len(alpha), len(alpha), 0)
	for i := 0; i < n; i++ {
		for j1 := 1; j1 < n1; j1++ { // j1 = 0 is empty: absorbing
			for j2 := 0; j2 < n2; j2++ {
				from := idx(i, j1, j2)
				out := 0.0
				m.Workload.Generator().Row(i, func(to int, r float64) {
					if to != i && r > 0 {
						b.Add(from, idx(to, j1, j2), r)
						out += r
					}
				})
				if cur := m.Currents[i]; cur > 0 {
					b.Add(from, idx(i, j1-1, j2), cur/delta)
					out += cur / delta
				}
				if k > 0 && j2 > 0 && j1 < n1-1 {
					h1 := float64(j1) * delta / c
					h2 := float64(j2) * delta / (1 - c)
					if r := k * (h2 - h1) / delta; r > 0 {
						b.Add(from, idx(i, j1+1, j2-1), r)
						out += r
					}
				}
				b.Add(from, from, -out)
			}
		}
	}
	q, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return q, alpha
}

// TestBuildMatchesReference requires Build's Q* and α* to equal the
// reference construction bit for bit, entry by entry: on the Fig. 8
// battery at three steps, on the one-well battery (n2 = 1), and
// without diffusion (k = 0).
func TestBuildMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c, k     float64
		delta    float64
		wantRows int
	}{
		{"fig8/delta=300", 0.625, 4.5e-5, 300, 2 * 16 * 10},
		{"fig8/delta=100", 0.625, 4.5e-5, 100, 2 * 46 * 28},
		{"fig8/delta=50", 0.625, 4.5e-5, 50, 2 * 91 * 55},
		{"one-well", 1, 4.5e-5, 100, 2 * 73 * 1},
		{"no-diffusion", 0.625, 0, 100, 2 * 46 * 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := onOffModel(t, tc.c, tc.k)
			e, err := Build(m, tc.delta, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if e.Rows() != tc.wantRows {
				t.Fatalf("Build %d states, want %d", e.Rows(), tc.wantRows)
			}
			matchesReference(t, e, m, tc.delta)
		})
	}
}

// matchesReference fails unless Build's Q* — its rows as Row visits
// them — and α* equal referenceQ's bit for bit, entry by entry.
func matchesReference(t *testing.T, e *Expanded, m mrm.KiBaMRM, delta float64) {
	t.Helper()
	type entry struct {
		col int
		v   float64
	}
	q, alpha := referenceQ(t, m, delta)
	if e.Rows() != q.Rows() || e.NNZ() != q.NNZ() {
		t.Fatalf("Build %d states, %d nnz; reference %d states, %d nnz",
			e.Rows(), e.NNZ(), q.Rows(), q.NNZ())
	}
	var got, want []entry
	for r := 0; r < q.Rows(); r++ {
		got, want = got[:0], want[:0]
		e.Row(r, func(col int, v float64) { got = append(got, entry{col, v}) })
		q.Row(r, func(col int, v float64) { want = append(want, entry{col, v}) })
		if len(got) != len(want) {
			t.Fatalf("row %d: Build %v, reference %v", r, got, want)
		}
		for p := range want {
			if got[p].col != want[p].col || math.Float64bits(got[p].v) != math.Float64bits(want[p].v) {
				t.Fatalf("row %d: Build %v, reference %v", r, got, want)
			}
		}
	}
	for s := range alpha {
		if math.Float64bits(e.alpha[s]) != math.Float64bits(alpha[s]) {
			t.Fatalf("α*[%d] = %v, reference %v", s, e.alpha[s], alpha[s])
		}
	}
}
