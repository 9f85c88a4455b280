//go:build !race

package sparse

// useAVX2 selects the AVX2 band kernel. It is probed once, from the
// CPU alone. The race detector cannot see the assembly's memory
// accesses, so race builds compile banded_noasm.go instead and keep
// every band access on the instrumented Go passes.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 must report AVX and OSXSAVE, XCR0 must enable
// the XMM and YMM state, and CPUID leaf 7 must report AVX2.
func cpuHasAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		xmmYMMOn = 1<<1 | 1<<2
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYMMOn != xmmYMMOn {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (XGETBV with ECX = 0).
func xgetbv() (eax, edx uint32)

// bandRowsAVX2 sets d[i] = Σ_k v_k[i]·x_k[i] for i in [0, n) over the
// first nb bands, where band k's values start at base[k] + voff[k] and
// its entries of x at x + xoff[k], each n float64s long. It is vertical
// SIMD: each lane is one row, in blocks of 32 rows (eight YMM
// accumulators), then 8 (two), then 4, then one at a time. A block
// starts from +0 and takes the bands in order, VMULPD then VADDPD, with
// no FMA: every lane rounds exactly as the Go passes' s := 0.0;
// s += v*x does.
//
//go:noescape
func bandRowsAVX2(d *float64, n int, base **float64, voff *[MaxBands]int32, x *float64, xoff *[MaxBands]int32, nb int)

// segmentRowsAVX2 is segmentRowsGo on the AVX2 kernel, which reads
// without bounds checks. Each address it reads is in bounds by
// construction: Banded.segments checked, when Pool.Plan cut the segment,
// that each band's values for its rows lie in the band's storage, which
// never changes, and that its entries of x lie in [0, Cols()); and
// MulVecPlan checks len(x) == Cols() on every product. A part of a
// segment (see segment.part) reads a subrange of the same. dst is
// resliced here, so Go has bounds-checked every element the kernel
// writes.
//
//numlint:hotpath
func (b *Banded) segmentRowsAVX2(s *segment, dst, x []float64) {
	d := dst[s.lo:s.hi]
	nb := int(s.k1 - s.k0)
	if nb == 0 || len(d) == 0 {
		clear(d)
		return
	}
	bandRowsAVX2(&d[0], len(d), &b.base[s.k0], &s.v, &x[0], &s.x, nb)
}
