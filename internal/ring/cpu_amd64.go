package ring

// useIFMA says whether the CPU and OS support the AVX-512 IFMA instructions
// bconvDigits and bconvLanes run on (52-bit multiply-accumulate over 512-bit
// registers); without them every conversion runs the Go convertTile. useVAES
// says whether they support the 256-bit AES instructions (VAES with AVX2
// state) keystreamVAES runs on; without them the keystream comes from
// crypto/aes. One CPUID/XGETBV probe sets both at start-up.
var useIFMA, useVAES = cpuFeatures()

func cpuFeatures() (ifma, vaes bool) {
	const (
		osxsave    = 1 << 27    // CPUID.1:ECX
		avx        = 1 << 28    // CPUID.1:ECX
		avx2       = 1 << 5     // CPUID.7.0:EBX
		avx512f    = 1 << 16    // CPUID.7.0:EBX
		avx512ifma = 1 << 21    // CPUID.7.0:EBX
		vaesAES    = 1 << 9     // CPUID.7.0:ECX
		ymmOS      = 0b110      // XCR0: SSE and AVX state
		zmmOS      = 0b11100110 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 {
		return false, false
	}
	xcr0 := xgetbv0()
	_, b7, c7, _ := cpuid(7, 0)
	ifma = xcr0&zmmOS == zmmOS && b7&(avx512f|avx512ifma) == avx512f|avx512ifma
	vaes = c1&avx != 0 && xcr0&ymmOS == ymmOS && b7&avx2 != 0 && c7&vaesAES != 0
	return ifma, vaes
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
