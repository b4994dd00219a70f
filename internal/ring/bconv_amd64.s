#include "textflag.h"

// Both BConv stages run on the same lane arithmetic. A product y·c of two
// words (y < 2^64, c < p < 2^62) is split as y = y0 + y1·2^52 and
// c = c0 + c1·2^52 into seven 52-bit partial products, each in its own
// accumulator so no VPMADD52 waits on its own result within a term
// (VPMADD52 reads only the low 52 bits of its sources, so y and c stand in
// for y0 and c0):
//
//	Z0 += lo(y0·c0)                                    weight 2^0
//	Z1 += hi(y0·c0), Z2 += lo(y0·c1), Z4 += lo(y1·c0)  weight 2^52
//	Z3 += hi(y0·c1), Z5 += hi(y1·c0), Z6 += lo(y1·c1)  weight 2^104
//
// REDUCE then normalizes the sum T = d0 + d1·2^52 + d2·2^104 to 52-bit d0,
// d1 and reduces it by two radix-2^52 Montgomery steps, which divide by
// 2^104 — the factor the constants carry — and leave T/2^104 + (< p) < 2p
// whenever T < p·2^104. One VPMINUQ against the difference with p makes it
// canonical.

// ZERO clears the seven accumulators.
#define ZERO \
	VPXORQ Z0, Z0, Z0 \
	VPXORQ Z1, Z1, Z1 \
	VPXORQ Z2, Z2, Z2 \
	VPXORQ Z3, Z3, Z3 \
	VPXORQ Z4, Z4, Z4 \
	VPXORQ Z5, Z5, Z5 \
	VPXORQ Z6, Z6, Z6

// MADD adds the partial products of Z8 (y0), Z9 (y1) and c0, c1 to the
// accumulators.
#define MADD(c0, c1) \
	VPMADD52LUQ c0, Z8, Z0 \
	VPMADD52HUQ c0, Z8, Z1 \
	VPMADD52LUQ c1, Z8, Z2 \
	VPMADD52HUQ c1, Z8, Z3 \
	VPMADD52LUQ c0, Z9, Z4 \
	VPMADD52HUQ c0, Z9, Z5 \
	VPMADD52LUQ c1, Z9, Z6

// REDUCE leaves T·2^-104 mod p, canonical, in Z3, for accumulators that
// hold at most three sums of < 2^62 at weight 2^52. It reads Z24 = p (its
// low 52 bits are p0), Z25 = p1 = p>>52, Z26 = -p^-1 mod 2^52 and
// Z27 = 2^52-1, and clobbers Z0-Z7 and Z10. Step 1: m = d0·(-p^-1) mod
// 2^52 makes d0 + m·p a multiple of 2^52, and (d0, d1, d2) becomes
// (t0, t1) = (T + m·p) / 2^52. Step 2 does the same on t0, whose low 52
// bits are all VPMADD52 reads; the value is r0 + r1·2^52, r1 = hi(m·p1).
#define REDUCE \
	VPSRLQ      $52, Z0, Z10 \
	VPANDQ      Z27, Z0, Z0 \
	VPADDQ      Z2, Z1, Z1 \
	VPADDQ      Z10, Z4, Z4 \
	VPADDQ      Z4, Z1, Z1 \
	VPSRLQ      $52, Z1, Z10 \
	VPANDQ      Z27, Z1, Z1 \
	VPADDQ      Z5, Z3, Z3 \
	VPADDQ      Z10, Z6, Z6 \
	VPADDQ      Z6, Z3, Z3 \
	VPXORQ      Z7, Z7, Z7 \
	VPMADD52LUQ Z26, Z0, Z7 \
	VPMADD52LUQ Z24, Z7, Z0 \
	VPSRLQ      $52, Z0, Z0 \
	VPADDQ      Z0, Z1, Z1 \
	VPMADD52HUQ Z24, Z7, Z1 \
	VPMADD52LUQ Z25, Z7, Z1 \
	VPMADD52HUQ Z25, Z7, Z3 \
	VPXORQ      Z7, Z7, Z7 \
	VPMADD52LUQ Z26, Z1, Z7 \
	VPMADD52LUQ Z24, Z7, Z1 \
	VPSRLQ      $52, Z1, Z1 \
	VPADDQ      Z1, Z3, Z3 \
	VPMADD52HUQ Z24, Z7, Z3 \
	VPMADD52LUQ Z25, Z7, Z3 \
	VPXORQ      Z2, Z2, Z2 \
	VPMADD52HUQ Z25, Z7, Z2 \
	VPSLLQ      $52, Z2, Z2 \
	VPADDQ      Z2, Z3, Z3 \
	VPSUBQ      Z24, Z3, Z2 \
	VPMINUQ     Z2, Z3, Z3

// MODULUS loads REDUCE's constants from a table that starts p, p>>52,
// -p^-1 mod 2^52.
#define MODULUS(tab) \
	VPBROADCASTQ 0(tab), Z24 \
	VPBROADCASTQ 8(tab), Z25 \
	VPBROADCASTQ 16(tab), Z26 \
	MOVQ         $0x000fffffffffffff, AX \
	VPBROADCASTQ AX, Z27

// TAILMASK sets K1 to the low DX bits, DX < 8.
#define TAILMASK \
	MOVQ  DX, CX \
	MOVQ  $1, AX \
	SHLQ  CX, AX \
	DECQ  AX \
	KMOVW AX, K1

// func bconvDigits(y, cnt, x *uint64, n int, tab *uint64)
//
// Stage 1 of BConv for one source limb q: y[k] = x[k]·w·2^-64 mod q,
// canonical — the true digit of the M-form input x[k] — and cnt[k] gains 1
// when y[k] exceeds (q-1)/2. tab holds q, q>>52, -q^-1 mod 2^52, then
// c = w·2^40 mod q, c>>52 and (q-1)/2; the product x·c < q·2^104 for any
// 64-bit x. x is read under a lane mask past its last whole group of 8; y
// and cnt are written in whole groups, so both need room for n rounded up
// to a multiple of 8.
TEXT ·bconvDigits(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ cnt+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ tab+32(FP), R10

	MODULUS(R10)
	VPBROADCASTQ 24(R10), Z12 // c0
	VPBROADCASTQ 32(R10), Z13 // c1
	VPBROADCASTQ 40(R10), Z14 // (q-1)/2
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z15
	MOVQ         $0xff, AX
	KMOVW        AX, K1

digit:
	CMPQ DX, $8
	JGE  whole
	TAILMASK

whole:
	VMOVDQU64.Z (SI), K1, Z8
	VPSRLQ      $52, Z8, Z9
	ZERO
	MADD(Z12, Z13)
	REDUCE
	VMOVDQU64   Z3, (DI)
	VPCMPUQ     $6, Z14, Z3, K2 // y > (q-1)/2
	VMOVDQU64   (BX), Z4
	VPADDQ      Z15, Z4, K2, Z4
	VMOVDQU64   Z4, (BX)
	ADDQ        $64, SI
	ADDQ        $64, DI
	ADDQ        $64, BX
	SUBQ        $8, DX
	JGT         digit
	VZEROUPPER
	RET

// func bconvLanes(dst, y *uint64, n, stride, terms int, tab *uint64)
//
// Stage 2 of BConv for one target limb p over a term-major tile: for each of
// the n coefficients k, dst[k] = Σ_t y[t·stride+k]·c_t mod p, canonical. The
// tile rows hold the stage-1 digits (< 2^62) and, last, the centering count.
// tab holds p, p>>52 and -p^-1 mod 2^52, then each term's constant c_t
// (< p, pre-multiplied by 2^104 mod p) beside c_t>>52. Each accumulator
// gains < 2^52 per term, so terms ≤ bconvLaneTerms = 1024 keeps the three
// weight-2^52 sums (plus a 12-bit carry) inside 64 bits, and
// T < terms·2^62·p < p·2^104. stride is a multiple of 8 and at least n;
// every row is read in whole groups of 8, so the last group of a ragged n
// reads (and then discards) up to 7 words past it, and stores only its n
// lanes.
TEXT ·bconvLanes(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ stride+24(FP), R8
	SHLQ $3, R8
	MOVQ terms+32(FP), R9
	MOVQ tab+40(FP), R10

	MODULUS(R10)
	ADDQ $24, R10

group:
	ZERO
	MOVQ SI, R11
	MOVQ R10, R12
	MOVQ R9, CX

term:
	VMOVDQU64    (R11), Z8
	VPBROADCASTQ (R12), Z10
	VPBROADCASTQ 8(R12), Z11
	VPSRLQ       $52, Z8, Z9
	MADD(Z10, Z11)
	ADDQ         R8, R11
	ADDQ         $16, R12
	DECQ         CX
	JNZ          term

	REDUCE
	CMPQ      DX, $8
	JLT       tail
	VMOVDQU64 Z3, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, DX
	JNZ       group
	VZEROUPPER
	RET

tail:
	TAILMASK
	VMOVDQU64 Z3, K1, (DI)
	VZEROUPPER
	RET
