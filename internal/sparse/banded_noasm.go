//go:build !amd64 || race

package sparse

// useAVX2 is false off amd64 and under the race detector: the Go passes
// are the only interior kernel.
const useAVX2 = false

// interiorRowsAVX2 is never called where useAVX2 is false.
func (b *Banded) interiorRowsAVX2(dst, x []float64, lo, hi int) {
	panic("sparse: AVX2 band kernel not built")
}
