package ring

// The package's one CPU feature table. useIFMA says whether the CPU and OS
// support the AVX-512 IFMA instructions (52-bit multiply-accumulate over
// 512-bit registers) that bconvDigits and bconvLanes run on, and with them
// the IFMA tier of the lane rows, which a modulus takes when it is built
// and which runs where the lanes run: the NTT passes, Shoup rows and
// Montgomery rows of every modulus below 2^51 (Modulus.ifma); without them every conversion runs the Go convertTile and every modulus
// keeps the DQ tier. useVAES says whether they support the
// 256-bit AES instructions (VAES with AVX2 state) keystreamVAES runs on;
// without them the keystream comes from crypto/aes. useLanes says whether
// they support AVX-512F and DQ (VPMULLQ), which the lane passes of
// ntt_amd64.s and the element-wise lane rows of elem_amd64.s need; without
// them every transform and every element-wise row runs its Go kernel.
// One CPUID/XGETBV probe sets all three at start-up; cpu_other.go clears
// them on other architectures.
var useIFMA, useVAES, useLanes = cpuFeatures()

func cpuFeatures() (ifma, vaes, lanes bool) {
	const (
		osxsave    = 1 << 27    // CPUID.1:ECX
		avx        = 1 << 28    // CPUID.1:ECX
		avx2       = 1 << 5     // CPUID.7.0:EBX
		avx512f    = 1 << 16    // CPUID.7.0:EBX
		avx512dq   = 1 << 17    // CPUID.7.0:EBX
		avx512ifma = 1 << 21    // CPUID.7.0:EBX
		vaesAES    = 1 << 9     // CPUID.7.0:ECX
		ymmOS      = 0b110      // XCR0: SSE and AVX state
		zmmOS      = 0b11100110 // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 {
		return false, false, false
	}
	xcr0 := xgetbv0()
	_, b7, c7, _ := cpuid(7, 0)
	zmm := xcr0&zmmOS == zmmOS
	ifma = zmm && b7&(avx512f|avx512ifma) == avx512f|avx512ifma
	vaes = c1&avx != 0 && xcr0&ymmOS == ymmOS && b7&avx2 != 0 && c7&vaesAES != 0
	lanes = zmm && b7&(avx512f|avx512dq) == avx512f|avx512dq
	return ifma, vaes, lanes
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
