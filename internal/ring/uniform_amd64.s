#include "textflag.h"

// Byte reversal within each 64-bit word of both 128-bit lanes: turns a lane
// holding the native words (hi, ctr) into the big-endian counter block.
DATA bswapWords<>+0x00(SB)/8, $0x0001020304050607
DATA bswapWords<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapWords<>+0x10(SB)/8, $0x0001020304050607
DATA bswapWords<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapWords<>(SB), RODATA|NOPTR, $32

// Adds 2 to the counter word of both lanes.
DATA ctrStep<>+0x00(SB)/8, $0
DATA ctrStep<>+0x08(SB)/8, $2
DATA ctrStep<>+0x10(SB)/8, $0
DATA ctrStep<>+0x18(SB)/8, $2
GLOBL ctrStep<>(SB), RODATA|NOPTR, $32

// The sign bit of a 64-bit word: XORed onto both sides, it turns the signed
// VPCMPGTQ into an unsigned comparison.
DATA signBit<>+0x00(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func keystreamVAES(rk *[11][32]byte, hi, ctr uint64, dst *uint64, blocks int, lim uint64) (rejected bool)
//
// Writes the AES-128-CTR keystream of the counter blocks hi ‖ ctr,
// hi ‖ ctr+1, …, hi ‖ ctr+blocks−1 (two big-endian 64-bit words each) to dst,
// 16 bytes per block, and reports whether any of its little-endian words
// exceeds lim. rk holds the 11 round keys, each twice (one per lane). blocks
// is a positive multiple of 16; ctr+blocks must not wrap.
TEXT ·keystreamVAES(SB), NOSPLIT, $0-49
	MOVQ rk+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ ctr+16(FP), CX
	MOVQ dst+24(FP), DI
	MOVQ blocks+32(FP), SI

	// Y10 = sign bits, Y11 = lim with its sign bit flipped, Y9 = the OR of
	// every comparison.
	VPBROADCASTQ signBit<>(SB), Y10
	VPBROADCASTQ lim+40(FP), Y11
	VPXOR Y10, Y11, Y11
	VPXOR Y9, Y9, Y9

	// Y15 = native (hi, ctr | hi, ctr+1).
	VMOVQ BX, X15
	VPINSRQ $1, CX, X15, X15
	INCQ CX
	VMOVQ BX, X14
	VPINSRQ $1, CX, X14, X14
	VINSERTI128 $1, X14, Y15, Y15
	VMOVDQU bswapWords<>(SB), Y14
	VMOVDQU ctrStep<>(SB), Y13

loop:
	VPSHUFB Y14, Y15, Y0
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y1
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y2
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y3
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y4
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y5
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y6
	VPADDQ  Y13, Y15, Y15
	VPSHUFB Y14, Y15, Y7
	VPADDQ  Y13, Y15, Y15

	VMOVDQU (AX), Y12
	VPXOR Y12, Y0, Y0
	VPXOR Y12, Y1, Y1
	VPXOR Y12, Y2, Y2
	VPXOR Y12, Y3, Y3
	VPXOR Y12, Y4, Y4
	VPXOR Y12, Y5, Y5
	VPXOR Y12, Y6, Y6
	VPXOR Y12, Y7, Y7

#define ROUND(off) \
	VMOVDQU off(AX), Y12 \
	VAESENC Y12, Y0, Y0 \
	VAESENC Y12, Y1, Y1 \
	VAESENC Y12, Y2, Y2 \
	VAESENC Y12, Y3, Y3 \
	VAESENC Y12, Y4, Y4 \
	VAESENC Y12, Y5, Y5 \
	VAESENC Y12, Y6, Y6 \
	VAESENC Y12, Y7, Y7

	ROUND(32)
	ROUND(64)
	ROUND(96)
	ROUND(128)
	ROUND(160)
	ROUND(192)
	ROUND(224)
	ROUND(256)
	ROUND(288)

	VMOVDQU 320(AX), Y12
	VAESENCLAST Y12, Y0, Y0
	VAESENCLAST Y12, Y1, Y1
	VAESENCLAST Y12, Y2, Y2
	VAESENCLAST Y12, Y3, Y3
	VAESENCLAST Y12, Y4, Y4
	VAESENCLAST Y12, Y5, Y5
	VAESENCLAST Y12, Y6, Y6
	VAESENCLAST Y12, Y7, Y7

	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)

#define CHECK(y) \
	VPXOR    Y10, y, Y8 \
	VPCMPGTQ Y11, Y8, Y8 \
	VPOR     Y8, Y9, Y9

	CHECK(Y0)
	CHECK(Y1)
	CHECK(Y2)
	CHECK(Y3)
	CHECK(Y4)
	CHECK(Y5)
	CHECK(Y6)
	CHECK(Y7)

	ADDQ $256, DI
	SUBQ $16, SI
	JNZ  loop

	VPTEST Y9, Y9
	SETNE  rejected+48(FP)
	VZEROUPPER
	RET

