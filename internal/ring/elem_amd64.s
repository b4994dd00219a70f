#include "textflag.h"
#include "lanes_amd64.h"

// The lane tiers of the element-wise row kernels (ops.go, acc.go): eight
// coefficients per zmm register, word for word the Go row each replaces.
// Each function runs over the common length of its slices rounded down to
// a multiple of 8; the Go row takes the tail. Every row has a DQ tier (…
// Lanes; AVX-512F and DQ, like ntt_amd64.s's), exact for every 64-bit
// input. Two families, each with its bodies held once, also have an IFMA
// tier (…IFMA; AVX-512F and IFMA):
//
//   - the Montgomery rows (mont_rows_amd64.h), for q < 2^51, a first
//     operand below q and any 64-bit second operand, where MONTMUL52's
//     two-step 52-bit REDC leaves the canonical word REDC64 leaves;
//   - the Shoup rows (shoup_rows_amd64.h), for q < 2^51 and multiplied
//     words below 2^52, where SHOUP52's lazy product reduces to the same
//     canonical word.
//
// Register conventions, shared by every function:
//
//	Z31 = q, Z30 = 2q, Z29 = the tier's mask (CONSTS, CONSTS52)
//	Z28 = QInv, Z26 = 1 (REDCCONSTS, REDCCONSTS52)
//	Z27 = q>>32 in the DQ tier, 2^12 − 1 in the IFMA tier
//	Z21-Z23 a broadcast constant: w, its Shoup companion s and sh, s>>32
//	        in the DQ tier and s>>12 in the IFMA tier (SHOUPCONSTS; Z22,
//	        Z23: ⌊2^64/q⌋ and its high half in reduceAccRowLanes)
//	Z16-Z20 REDC, MONTMUL and MONTMUL52 temporaries
//	Z12-Z15 MULHI's temporaries (Z15 = 2^52 − q in the IFMA tier)
//	Z0-Z11  loads, stores and the gather's indexes
//
// A Montgomery product (mod.Montgomery.Mul) takes hi(a·b) from MULHI and
// lo(a·b) from VPMULLQ, then REDC: m = lo·QInv, and lo + lo(m·q) wraps to
// zero with a carry exactly when lo ≠ 0, so the carry is VPMINUQ(lo, 1).

// REDCCONSTS loads QInv, q>>32 and 1 (CONSTS first).
#define REDCCONSTS(qinvarg) \
	VPBROADCASTQ qinvarg, Z28 \
	VPSRLQ       $32, Z31, Z27 \
	MOVQ         $1, AX \
	VPBROADCASTQ AX, Z26

// REDC sets r = REDC(hi, lo) (mod.Montgomery.REDC), canonical: hi + hi(m·q)
// + (lo ≠ 0) with m = lo·QInv, less q when at least q. hi may be Z12; r
// may be neither hi nor lo.
#define REDC(hi, lo, r) \
	VPMULLQ Z28, lo, Z18 \
	VPMINUQ Z26, lo, Z16 \
	VPADDQ  Z16, hi, Z17 \
	MULHI(Z18, Z31, Z27) \
	VPADDQ  Z12, Z17, r \
	CSUBQ(r, Z13)

// MONTMUL sets r = mod.Montgomery.Mul(a, b), canonical, for any 64-bit a
// and b with a·b < q·2^64 (the Go row's own bound; the lanes agree with it
// word for word beyond it too). r is neither a nor b.
#define MONTMUL(a, b, r) \
	VPSRLQ  $32, b, Z19 \
	MULHI(a, b, Z19) \
	VPMULLQ b, a, Z20 \
	REDC(Z12, Z20, r)

// REDCCONSTS52 loads QInv, 2^12 − 1 and 1 (CONSTS52 first). The 52-bit
// multiplies read QInv's low 52 bits, −q^-1 mod 2^52, so one constant
// serves both REDC steps of MONTMUL52.
#define REDCCONSTS52(qinvarg) \
	VPBROADCASTQ qinvarg, Z28 \
	MOVQ         $0xfff, AX \
	VPBROADCASTQ AX, Z27 \
	MOVQ         $1, AX \
	VPBROADCASTQ AX, Z26

// MONTMUL52 sets r = mod.Montgomery.Mul(a, b), canonical, from 52-bit
// multiplies, for q < 2^51, a < q and any 64-bit b. With b = bh·2^52 + bl
// (bh < 2^12), a·b·2^-64 = (a·bl·2^-52 + a·bh)·2^-12, which takes two
// REDCs:
//
//  1. a·bl < q·2^52: m1 = lo52(lo·QInv) with lo = lo52(a·bl), and
//     t1 = (a·bl + m1·q)/2^52 = hi52(a·bl) + hi52(m1·q) + (lo ≠ 0),
//     below 2q (the carry as in REDC).
//  2. V = t1 + lo52(a·bh) < 2^53 and m2 = lo12(V·QInv): V + lo52(m2·q)
//     is a multiple of 2^12 below 2^54, so the whole
//     (t1 + a·bh + m2·q)/2^12 is (V + lo52(m2·q))>>12 plus
//     (hi52(a·bh) + hi52(m2·q))<<40. It is at most
//     (2q − 1 + (q − 1)(2^12 − 1) + (2^12 − 1)q)/2^12 < 2q.
//
// One conditional subtraction leaves the unique canonical residue of
// a·b·2^-64, the word REDC64 leaves. A VPMADD52 multiplies the low 52
// bits of its sources, so b serves as bl unmasked, and QInv as
// −q^-1 mod 2^52; every other source is below 2^52 but V, whose low 12
// bits alone make m2. r is neither a nor b; clobbers Z16-Z20.
#define MONTMUL52(a, b, r) \
	VPSRLQ      $52, b, Z20 \
	VPXORQ      Z16, Z16, Z16 \
	VPMADD52LUQ b, a, Z16 \
	VPXORQ      Z17, Z17, Z17 \
	VPMADD52LUQ Z28, Z16, Z17 \
	VPMINUQ     Z26, Z16, Z18 \
	VPMADD52HUQ b, a, Z18 \
	VPMADD52LUQ Z20, a, Z18 \
	VPMADD52HUQ Z31, Z17, Z18 \
	VPXORQ      Z17, Z17, Z17 \
	VPMADD52LUQ Z28, Z18, Z17 \
	VPANDQ      Z27, Z17, Z17 \
	VPXORQ      Z16, Z16, Z16 \
	VPMADD52HUQ Z20, a, Z16 \
	VPMADD52LUQ Z31, Z17, Z18 \
	VPMADD52HUQ Z31, Z17, Z16 \
	VPSRLQ      $12, Z18, Z18 \
	VPSLLQ      $40, Z16, Z16 \
	VPADDQ      Z16, Z18, r \
	CSUBQ(r, Z19)

// SHOUPCONSTS loads w, s and sh = s>>SHSHIFT into Z21-Z23.
#define SHOUPCONSTS(warg, sarg) \
	VPBROADCASTQ warg, Z21 \
	VPBROADCASTQ sarg, Z22 \
	VPSRLQ       SHSHIFT, Z22, Z23

// func reduceAccRowLanes(accLo, accHi, out []uint64, q, qInv, fold uint64)
//
// out[j] = mr.Reduce128(accHi[j], accLo[j]) (reduceAccRowGo): the high
// word less hi(hi·fold)·q, less q when at least q, then REDC.
TEXT ·reduceAccRowLanes(SB), NOSPLIT, $0-96
	MOVQ accLo_base+0(FP), SI
	MOVQ accLo_len+8(FP), CX
	MOVQ accHi_base+24(FP), DX
	MOVQ accHi_len+32(FP), AX
	MINLEN(AX, CX)
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+72(FP))
	REDCCONSTS(qInv+80(FP))
	VPBROADCASTQ fold+88(FP), Z22
	VPSRLQ       $32, Z22, Z23

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MULHI(Z1, Z22, Z23)
	VPMULLQ   Z31, Z12, Z12
	VPSUBQ    Z12, Z1, Z1
	CSUBQ(Z1, Z13)
	REDC(Z1, Z0, Z2)
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

// The DQ tier of the Montgomery and the Shoup rows.
#define MUL_ROW ·mulRowLanes
#define MUL_ADD_ROW ·mulAddRowLanes
#define GATHER_MUL_ROW ·gatherMulRowLanes
#define GATHER_MUL_ADD_ROW ·gatherMulAddRowLanes
#include "mont_rows_amd64.h"

#define SHSHIFT $32
#define MUL_SHOUP_ROW ·mulShoupRowLanes
#define MUL_SHOUP_ADD_ROW ·mulShoupAddRowLanes
#define SUB_MUL_SHOUP_ROW ·subMulShoupRowLanes
#include "shoup_rows_amd64.h"

// The IFMA tier, for q < 2^51: the Montgomery rows for first operands
// below q; the Shoup rows for rows whose multiplied words are below 2^52
// (every a[j]; a[j] − b[j], plus q where a[j] < b[j]).
#undef CONSTS
#undef REDCCONSTS
#undef MONTMUL
#undef SHOUP
#define CONSTS(qarg) CONSTS52(qarg)
#define REDCCONSTS(qinvarg) REDCCONSTS52(qinvarg)
#define MONTMUL(a, b, r) MONTMUL52(a, b, r)
#define SHOUP(x, w, s, sh, r) SHOUP52(x, w, s, sh, r)
#define MUL_ROW ·mulRowIFMA
#define MUL_ADD_ROW ·mulAddRowIFMA
#define GATHER_MUL_ROW ·gatherMulRowIFMA
#define GATHER_MUL_ADD_ROW ·gatherMulAddRowIFMA
#include "mont_rows_amd64.h"

#define SHSHIFT $12
#define MUL_SHOUP_ROW ·mulShoupRowIFMA
#define MUL_SHOUP_ADD_ROW ·mulShoupAddRowIFMA
#define SUB_MUL_SHOUP_ROW ·subMulShoupRowIFMA
#include "shoup_rows_amd64.h"
