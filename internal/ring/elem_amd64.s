#include "textflag.h"
#include "lanes_amd64.h"

// The lane tiers of the element-wise row kernels (ops.go, acc.go): eight
// coefficients per zmm register, word for word the Go row each replaces.
// Each function runs over the common length of its slices rounded down to
// a multiple of 8; the Go row takes the tail. Every row has a DQ tier (…
// Lanes; AVX-512F and DQ, like ntt_amd64.s's), exact for every 64-bit
// input. The Shoup rows, whose bodies shoup_rows_amd64.h holds once, also
// have an IFMA tier (…IFMA; AVX-512F and IFMA) for q < 2^50 and multiplied
// words below 2^52, where SHOUP52's lazy product reduces to the same
// canonical word.
//
// Register conventions, shared by every function:
//
//	Z31 = q, Z30 = 2q, Z29 = the tier's mask (CONSTS, CONSTS52)
//	Z28 = QInv, Z27 = q>>32, Z26 = 1 (REDCCONSTS)
//	Z21-Z23 a broadcast constant: w, its Shoup companion s and sh, s>>32
//	        in the DQ tier and s>>12 in the IFMA tier (SHOUPCONSTS; Z22,
//	        Z23: ⌊2^64/q⌋ and its high half in reduceAccRowLanes)
//	Z16-Z20 REDC and MONTMUL temporaries
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

// SHOUPCONSTS loads w, s and sh = s>>SHSHIFT into Z21-Z23.
#define SHOUPCONSTS(warg, sarg) \
	VPBROADCASTQ warg, Z21 \
	VPBROADCASTQ sarg, Z22 \
	VPSRLQ       SHSHIFT, Z22, Z23

// func mulRowLanes(a, b, out []uint64, q, qInv uint64)
//
// out[j] = mr.Mul(a[j], b[j]) (mulRowGo).
TEXT ·mulRowLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ b_len+32(FP), AX
	MINLEN(AX, CX)
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+72(FP))
	REDCCONSTS(qInv+80(FP))

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MONTMUL(Z0, Z1, Z2)
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

// func mulAddRowLanes(a, b, out []uint64, q, qInv uint64)
//
// out[j] = mod.Add(out[j], mr.Mul(a[j], b[j]), q) (mulAddRowGo).
TEXT ·mulAddRowLanes(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ b_len+32(FP), AX
	MINLEN(AX, CX)
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+72(FP))
	REDCCONSTS(qInv+80(FP))

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MONTMUL(Z0, Z1, Z2)
	VPADDQ    (DI), Z2, Z2
	CSUBQ(Z2, Z3)
	VMOVDQU64 Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

// func gatherMulRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64)
//
// out[j] = mr.Mul(a[table[j]], b[j]) (gatherMulRowGo) over the common length
// of table, b and out. The gather checks nothing: every table[j] must index
// a (MulKeyPair checks that before any row runs).
TEXT ·gatherMulRowLanes(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), SI
	MOVQ table_base+24(FP), BX
	MOVQ table_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), AX
	MINLEN(AX, CX)
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+96(FP))
	REDCCONSTS(qInv+104(FP))
	MOVL $0xff, R9

loop:
	VMOVDQU64  (BX), Z4
	KMOVW      R9, K1
	VPGATHERQQ (SI)(Z4*8), K1, Z0
	VMOVDQU64  (DX), Z1
	MONTMUL(Z0, Z1, Z2)
	VMOVDQU64  Z2, (DI)
	ADDQ       $64, BX
	ADDQ       $64, DX
	ADDQ       $64, DI
	SUBQ       $8, CX
	JNZ        loop
	VZEROUPPER

done:
	RET

// func gatherMulAddRowLanes(a []uint64, table []int, b, out []uint64, q, qInv uint64)
//
// out[j] = mod.Add(out[j], mr.Mul(a[table[j]], b[j]), q)
// (gatherMulAddRowGo), with gatherMulRowLanes' precondition on table.
TEXT ·gatherMulAddRowLanes(SB), NOSPLIT, $0-112
	MOVQ a_base+0(FP), SI
	MOVQ table_base+24(FP), BX
	MOVQ table_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), AX
	MINLEN(AX, CX)
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+96(FP))
	REDCCONSTS(qInv+104(FP))
	MOVL $0xff, R9

loop:
	VMOVDQU64  (BX), Z4
	KMOVW      R9, K1
	VPGATHERQQ (SI)(Z4*8), K1, Z0
	VMOVDQU64  (DX), Z1
	MONTMUL(Z0, Z1, Z2)
	VPADDQ     (DI), Z2, Z2
	CSUBQ(Z2, Z3)
	VMOVDQU64  Z2, (DI)
	ADDQ       $64, BX
	ADDQ       $64, DX
	ADDQ       $64, DI
	SUBQ       $8, CX
	JNZ        loop
	VZEROUPPER

done:
	RET

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

// The Shoup rows' DQ tier.
#define SHSHIFT $32
#define MUL_SHOUP_ROW ·mulShoupRowLanes
#define MUL_SHOUP_ADD_ROW ·mulShoupAddRowLanes
#define SUB_MUL_SHOUP_ROW ·subMulShoupRowLanes
#include "shoup_rows_amd64.h"

// The Shoup rows' IFMA tier, for q < 2^50 and rows whose multiplied words
// are below 2^52 (every a[j]; a[j] − b[j], plus q where a[j] < b[j]).
#undef CONSTS
#undef SHOUP
#define CONSTS(qarg) CONSTS52(qarg)
#define SHOUP(x, w, s, sh, r) SHOUP52(x, w, s, sh, r)
#define SHSHIFT $12
#define MUL_SHOUP_ROW ·mulShoupRowIFMA
#define MUL_SHOUP_ADD_ROW ·mulShoupAddRowIFMA
#define SUB_MUL_SHOUP_ROW ·subMulShoupRowIFMA
#include "shoup_rows_amd64.h"
