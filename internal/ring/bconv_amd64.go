package ring

// useIFMA says whether the CPU and OS support the AVX-512 IFMA instructions
// bconvDigits and bconvLanes run on (52-bit multiply-accumulate over 512-bit
// registers); without them every conversion runs the Go convertTile.
var useIFMA = hasIFMA()

func hasIFMA() bool {
	const (
		osxsave = 1 << 27    // CPUID.1:ECX
		avx512f = 1 << 16    // CPUID.7.0:EBX
		ifma    = 1 << 21    // CPUID.7.0:EBX
		zmmOS   = 0b11100110 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || xgetbv0()&zmmOS != zmmOS {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(avx512f|ifma) == avx512f|ifma
}

//go:noescape
func bconvDigits(y, cnt, x *uint64, n int, tab *uint64)

//go:noescape
func bconvLanes(dst, y *uint64, n, stride, terms int, tab *uint64)
