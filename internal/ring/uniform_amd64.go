package ring

// useVAES says whether the CPU and OS support the 256-bit AES instructions
// (VAES with AVX2 state) that keystreamVAES runs on; without them the
// keystream comes from crypto/aes.
var useVAES = hasVAES()

func hasVAES() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		vaes    = 1 << 9  // CPUID.7.0:ECX
		ymmOS   = 0b110   // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(osxsave|avx) != osxsave|avx || xgetbv0()&ymmOS != ymmOS {
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	return b7&avx2 != 0 && c7&vaes != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:noescape
func keystreamVAES(rk *[11][32]byte, hi, ctr uint64, dst *uint64, blocks int, lim uint64) (rejected bool)
