//go:build !race

package sparse

// useAVX2 selects the AVX2 interior kernel. It is probed once, from the
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

// interiorRowsAVX2 is interiorRowsGo on the AVX2 kernel. It reslices
// the tile of dst, every band and each band's window of x exactly as
// interiorRowsGo does (tileRows, inlined here to pass base pointers), so
// Go has bounds-checked every element before the assembly reads or
// writes it.
//
//numlint:hotpath
func (b *Banded) interiorRowsAVX2(dst, x []float64, lo, hi int) {
	d := dst[lo:hi]
	if len(d) == 0 {
		return
	}
	var v, xs [MaxBands]*float64
	ph := b.phase(lo)
	for k, o := range b.offs {
		v[k], xs[k] = &b.bands[k].rows(lo, hi, ph)[0], &x[lo+o : hi+o][0]
	}
	bandRowsAVX2(&d[0], len(d), &v, &xs, len(b.offs))
}
