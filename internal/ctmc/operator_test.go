package ctmc

import (
	"math"
	"slices"
	"testing"

	"batlife/internal/sparse"
)

// offsetChain returns the generator of an n-state chain with a
// transition i → i+d for every d of diffs that stays in range, so Pᵀ
// has the offsets −d and 0.
func offsetChain(t *testing.T, n int, diffs []int) *sparse.CSR {
	t.Helper()
	b := sparse.NewBuilder(n, n, n*(len(diffs)+1))
	for i := 0; i < n; i++ {
		exit := 0.0
		for k, d := range diffs {
			if j := i + d; j >= 0 && j < n {
				rate := 0.5 + float64((i+k)%4)/4
				b.Add(i, j, rate)
				exit += rate
			}
		}
		b.Add(i, i, -exit)
	}
	gen, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestOperatorLayoutByOffsetCount: Pᵀ is banded up to sparse.MaxBands
// distinct offsets, the diagonal included, and falls back to CSR past
// that. A banded operator's window shifts equal those of its CSR twin,
// and so do its answers, bit for bit.
func TestOperatorLayoutByOffsetCount(t *testing.T) {
	for _, tc := range []struct {
		diffs []int
		bands int
	}{
		{[]int{-30, -7, -1, 1, 2, 9, 40}, 8},     // with the diagonal: 8 offsets
		{[]int{-30, -7, -1, 1, 2, 9, 40, 55}, 0}, // 9 offsets: CSR
	} {
		gen := offsetChain(t, 200, tc.diffs)
		u, err := NewUniformized(gen, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, banded := u.pt.(*sparse.Banded)
		if u.bands != tc.bands || banded != (tc.bands > 0) {
			t.Fatalf("%d offsets: %T with %d bands, want %d bands", len(tc.diffs)+1, u.pt, u.bands, tc.bands)
		}
		if !banded {
			continue
		}
		twin, err := NewUniformizedCSR(gen, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(u.shifts, twin.shifts) {
			t.Errorf("banded shifts %v, CSR shifts %v", u.shifts, twin.shifts)
		}
		alpha := make([]float64, 200)
		alpha[100] = 1
		for _, times := range [][]float64{{2}, {0.5, 2, 6}} {
			got, err := u.Transient(alpha, nil, times, TransientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Transient(alpha, nil, times, TransientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.Distributions {
				for i, p := range want.Distributions[k] {
					if math.Float64bits(got.Distributions[k][i]) != math.Float64bits(p) {
						t.Fatalf("times %v: π(t%d)[%d] banded %v, CSR %v", times, k, i, got.Distributions[k][i], p)
					}
				}
			}
		}
	}
}

// TestWeightCacheBounded: solving many distinct time grids on one
// operator keeps at most maxWeightTables Fox–Glynn tables, and a grid
// whose tables were evicted and recomputed gets the same answers bit
// for bit.
func TestWeightCacheBounded(t *testing.T) {
	c := absorbingCycle(t)
	u, err := NewUniformized(c.Generator(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	alpha := c.PointDistribution(0)
	w := make([]float64, len(alpha))
	w[len(w)-1] = 1
	first := []float64{0.5, 1.5, 4}
	solve := func(times []float64) []float64 {
		res, err := u.Transient(alpha, w, times, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Values
	}
	want := solve(first)
	for g := 0; g < 3*maxWeightTables; g++ {
		solve([]float64{5 + float64(g)/10, 40 + float64(g)})
		if len(u.weights) > maxWeightTables {
			t.Fatalf("after %d grids: %d tables, cap %d", g+1, len(u.weights), maxWeightTables)
		}
	}
	if len(u.weights) != maxWeightTables {
		t.Fatalf("%d tables retained, want the cap %d", len(u.weights), maxWeightTables)
	}
	if _, ok := u.weights[weightKey{qt: math.Float64bits(u.q * first[0]), eps: math.Float64bits(1e-12)}]; ok {
		t.Fatal("the first grid's tables survived; the test does not exercise eviction")
	}
	got := solve(first)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Errorf("t=%v: %v after eviction, %v before", first[k], got[k], want[k])
		}
	}
}
