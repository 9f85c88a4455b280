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

// bandRowsAVX2 sets d[i] = Σ_k v[k][i]·x[k][i] for i in [0, n) over the
// first nb entries of v and x, each the base of n float64s. It is
// vertical SIMD: each lane is one row, in blocks of 8 rows (two YMM
// accumulators), then 4, then one at a time. A block starts from +0 and
// takes the bands in order, VMULPD then VADDPD, with no FMA: every lane
// rounds exactly as the Go passes' s := 0.0; s += v*x does.
//
//go:noescape
func bandRowsAVX2(d *float64, n int, v, x *[MaxBands]*float64, nb int)

// segmentRowsAVX2 is segmentRowsGo on the AVX2 kernel. The band bases
// come from the segment, sliced and bounds-checked when the plan was
// built against the bands' own storage, which never changes; dst and
// each band's window of x are resliced here exactly as segmentRowsGo
// reslices them, so Go has bounds-checked every element of those before
// the assembly reads or writes it.
//
//numlint:hotpath
func (b *Banded) segmentRowsAVX2(s *segment, dst, x []float64) {
	lo, hi := int(s.lo), int(s.hi)
	d := dst[lo:hi]
	nb := int(s.k1 - s.k0)
	if nb == 0 || len(d) == 0 {
		clear(d)
		return
	}
	var xs [MaxBands]*float64
	for k, o := range b.offs[s.k0:s.k1] {
		xs[k] = &x[lo+o : hi+o][0]
	}
	bandRowsAVX2(&d[0], len(d), &s.v, &xs, nb)
}
