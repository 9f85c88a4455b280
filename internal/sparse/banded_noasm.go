//go:build !amd64 || race

package sparse

// useAVX2 is false off amd64 and under the race detector: the Go passes
// are the only band kernel.
const useAVX2 = false

// segmentRowsAVX2 is never called where useAVX2 is false.
func (b *Banded) segmentRowsAVX2(s *segment, dst, x []float64) {
	panic("sparse: AVX2 band kernel not built")
}
