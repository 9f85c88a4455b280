package sparse

import (
	"fmt"
	"testing"
)

// benchSkewedChain is the benchmark workload: a 50k-row chain whose nnz
// mass piles onto a small prefix of rows, the shape expanded battery
// CTMCs take near the depleted boundary.
func benchSkewedChain(b *testing.B) (*CSR, []float64) {
	b.Helper()
	const rows = 50000
	m := buildSkewedCSR(b, rows, 512, 96)
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	return m, x
}

// BenchmarkUniformizedSpMVMulti compares B solo products against one
// batched multi-vector product over the same right-hand sides — the
// row-traversal amortisation batched sweeps buy.
func BenchmarkUniformizedSpMVMulti(b *testing.B) {
	m, x := benchSkewedChain(b)
	const batch = 4
	xs := make([][]float64, batch)
	dsts := make([][]float64, batch)
	for k := range xs {
		xs[k] = append([]float64(nil), x...)
		dsts[k] = make([]float64, m.Rows())
	}
	b.Run(fmt.Sprintf("solo-x%d", batch), func(b *testing.B) {
		pool := NewPool(1)
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range xs {
				if err := pool.MulVec(m, dsts[k], xs[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("batched-x%d", batch), func(b *testing.B) {
		pool := NewPool(1)
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.MulVecMulti(m, dsts, xs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
