package sparse

import (
	"fmt"
	"sync"
	"testing"
)

// spawnPool is the pre-persistent-runtime dispatch strategy, kept here
// as the benchmark comparator: every product spawns one goroutine per
// chunk and joins them all. BenchmarkUniformizedSpMV pits it against
// the persistent channel-fed workers on the same nnz-balanced
// partition, so the measured gap is pure dispatch overhead — the cost
// the persistent runtime exists to delete from the uniformisation
// inner loop.
type spawnPool struct {
	workers int
	j       spmvJob // partition scratch only; never dispatched
}

func (p *spawnPool) mulVec(m *CSR, dst, x []float64) {
	all := [2]int32{0, int32(m.rows)}
	p.j.partition(m, all[:], p.workers, int64(m.NNZ()+m.rows))
	var wg sync.WaitGroup
	for c := 0; c+1 < len(p.j.starts); c++ {
		wg.Add(1)
		go func(from, to int32) {
			defer wg.Done()
			for i := from; i < to; i++ {
				m.mulRows(dst, x, int(p.j.pieces[2*i]), int(p.j.pieces[2*i+1]))
			}
		}(p.j.starts[c], p.j.starts[c+1])
	}
	wg.Wait()
}

// benchSkewedChain is the benchmark workload: a 50k-row chain whose nnz
// mass piles onto a small prefix of rows, the shape that defeats
// row-count partitioning and that expanded battery CTMCs take near the
// depleted boundary.
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

// BenchmarkUniformizedSpMV measures one uniformisation-step product on
// the skewed 50k-row chain under the dispatch strategies the runtime
// redesign chooses between: the persistent channel-fed worker pool
// against spawn-per-product goroutines, per worker count. The
// persistent/spawn gap at >= 8 workers is the benchmark-gate headline
// (see docs/PERFORMANCE.md; the gap only materialises on multi-core
// runners — a 1-vCPU machine runs both serially).
func BenchmarkUniformizedSpMV(b *testing.B) {
	m, x := benchSkewedChain(b)
	dst := make([]float64, m.Rows())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("persistent-w%d", workers), func(b *testing.B) {
			pool := NewPool(workers)
			defer pool.Close()
			b.ReportMetric(float64(m.NNZ()), "nnz")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.MulVec(m, dst, x); err != nil {
					b.Fatal(err)
				}
			}
		})
		if workers == 1 {
			continue // spawn-per-product with one chunk is just serial
		}
		b.Run(fmt.Sprintf("spawn-w%d", workers), func(b *testing.B) {
			pool := &spawnPool{workers: workers}
			b.ReportMetric(float64(m.NNZ()), "nnz")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.mulVec(m, dst, x)
			}
		})
	}
}

// BenchmarkUniformizedSpMVFused compares the fused
// product-and-accumulate kernel against the unfused product plus a
// separate accumulation sweep — the fold the transient inner loop pays
// per iterate without fusion.
func BenchmarkUniformizedSpMVFused(b *testing.B) {
	m, x := benchSkewedChain(b)
	dst := make([]float64, m.Rows())
	acc := make([]float64, m.Rows())
	b.Run("unfused", func(b *testing.B) {
		pool := NewPool(1)
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.MulVec(m, dst, x); err != nil {
				b.Fatal(err)
			}
			for j := range acc {
				acc[j] += 0.5 * dst[j]
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		pool := NewPool(1)
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pool.MulVecAccum(m, dst, x, acc, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
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
