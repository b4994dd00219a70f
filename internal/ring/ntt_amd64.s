#include "textflag.h"
#include "lanes_amd64.h"

// The lane tier of the fused NTT row kernels (ntt.go): every pass of
// nttRowRadix4 and inttRowRadix4 with eight coefficients per zmm register,
// word for word the Go pass it replaces. The arithmetic needs AVX-512F
// and DQ (VPMULLQ) only.
//
// Register conventions, shared by every function (the macros of
// lanes_amd64.h take Z29-Z31 and Z12-Z15):
//
//	Z31 = q, Z30 = 2q, Z29 = 2^32-1 (CONSTS)
//	Z0-Z3   the four coefficients of a quartet (or x, y of a radix-2 pair)
//	Z4-Z7   butterfly temporaries
//	Z8-Z11  loads and stores around the in-register permutes
//	Z12-Z15 SHOUP's temporaries
//	Z16-Z24 twiddles, each as w, its Shoup companion s and s>>32
//	        (Z16-Z27 in inttLastQuartetsLanes, which has four)
//	Z25-Z28 the permute index vectors (the stride-1 passes)
//
// A Shoup product x·w − hi(x·s)·q (mod.MulShoupLazy) takes the exact high
// word of the 64×64-bit product x·s from four 32×32 VPMULUDQ partial
// products, and the two low words from VPMULLQ. Each conditional
// subtraction of 2q (or q) is one VPMINUQ(u, u−2q): when u < 2q the
// difference wraps past u, so the minimum is u itself, which is the Go
// kernels' branch for every 64-bit u.

// Permute indexes for VPERMT2Q over two 8-word tables. T0 and T1 transpose
// two pairs of quartets, (r0, r1) and (r2, r3), into (c0 of r0..r3, c1 of
// r0..r3) and (c2 …, c3 …); EVEN and ODD split 8 (w, s) pairs into the w
// and the s words.
DATA nttIdx<>+0x00(SB)/8, $0
DATA nttIdx<>+0x08(SB)/8, $4
DATA nttIdx<>+0x10(SB)/8, $8
DATA nttIdx<>+0x18(SB)/8, $12
DATA nttIdx<>+0x20(SB)/8, $1
DATA nttIdx<>+0x28(SB)/8, $5
DATA nttIdx<>+0x30(SB)/8, $9
DATA nttIdx<>+0x38(SB)/8, $13
DATA nttIdx<>+0x40(SB)/8, $2
DATA nttIdx<>+0x48(SB)/8, $6
DATA nttIdx<>+0x50(SB)/8, $10
DATA nttIdx<>+0x58(SB)/8, $14
DATA nttIdx<>+0x60(SB)/8, $3
DATA nttIdx<>+0x68(SB)/8, $7
DATA nttIdx<>+0x70(SB)/8, $11
DATA nttIdx<>+0x78(SB)/8, $15
DATA nttIdx<>+0x80(SB)/8, $0
DATA nttIdx<>+0x88(SB)/8, $2
DATA nttIdx<>+0x90(SB)/8, $4
DATA nttIdx<>+0x98(SB)/8, $6
DATA nttIdx<>+0xa0(SB)/8, $8
DATA nttIdx<>+0xa8(SB)/8, $10
DATA nttIdx<>+0xb0(SB)/8, $12
DATA nttIdx<>+0xb8(SB)/8, $14
DATA nttIdx<>+0xc0(SB)/8, $1
DATA nttIdx<>+0xc8(SB)/8, $3
DATA nttIdx<>+0xd0(SB)/8, $5
DATA nttIdx<>+0xd8(SB)/8, $7
DATA nttIdx<>+0xe0(SB)/8, $9
DATA nttIdx<>+0xe8(SB)/8, $11
DATA nttIdx<>+0xf0(SB)/8, $13
DATA nttIdx<>+0xf8(SB)/8, $15
GLOBL nttIdx<>(SB), RODATA|NOPTR, $256

// PERMIDX loads the four permute index vectors.
#define PERMIDX \
	VMOVDQU64 nttIdx<>+0x00(SB), Z25 \
	VMOVDQU64 nttIdx<>+0x40(SB), Z26 \
	VMOVDQU64 nttIdx<>+0x80(SB), Z27 \
	VMOVDQU64 nttIdx<>+0xc0(SB), Z28

// CSUB2Q subtracts 2q from x when x is at least 2q, as CSUBQ does q.
#define CSUB2Q(x, tmp) \
	VPSUBQ  Z30, x, tmp \
	VPMINUQ tmp, x, x

// BCAST sets w, s and sh = s>>32 from the pair (w, s) at off(ptr) for every
// lane; BCAST2 does it for two groups, the low four lanes from offA and the
// high four (K1) from offB.
#define BCAST(off, ptr, w, s, sh) \
	VPBROADCASTQ off(ptr), w \
	VPBROADCASTQ off+8(ptr), s \
	VPSRLQ       $32, s, sh

#define BCAST2(offA, offB, ptr, w, s, sh) \
	VPBROADCASTQ offA(ptr), w \
	VPBROADCASTQ offB(ptr), K1, w \
	VPBROADCASTQ offA+8(ptr), s \
	VPBROADCASTQ offB+8(ptr), K1, s \
	VPSRLQ       $32, s, sh

// PAIRS sets w, s and sh from 8 (w, s) pairs at ptr, one per lane.
#define PAIRS(ptr, w, s, sh) \
	VMOVDQU64 (ptr), w \
	VPERMT2Q  64(ptr), Z27, w \
	VMOVDQU64 (ptr), s \
	VPERMT2Q  64(ptr), Z28, s \
	VPSRLQ    $32, s, sh

// TRANSPOSE turns 8 quartets in row order, two per register in i0-i3, into
// one coefficient per register: o0 holds c0 of every quartet, o1 c1, o2 c2
// and o3 c3. It clobbers i0 and i2.
#define TRANSPOSE(i0, i1, i2, i3, o0, o1, o2, o3) \
	VMOVDQA64  i0, o0 \
	VPERMT2Q   i1, Z25, o0 \
	VPERMT2Q   i1, Z26, i0 \
	VMOVDQA64  i2, o2 \
	VPERMT2Q   i3, Z25, o2 \
	VPERMT2Q   i3, Z26, i2 \
	VSHUFI64X2 $0xee, o2, o0, o1 \
	VSHUFI64X2 $0x44, o2, o0, o0 \
	VSHUFI64X2 $0xee, i2, i0, o3 \
	VSHUFI64X2 $0x44, i2, i0, o2

// UNTRANSPOSE is TRANSPOSE's inverse: x0-x3 back to 8 quartets in row
// order in o0-o3. It clobbers x0 and x2.
#define UNTRANSPOSE(x0, x1, x2, x3, o0, o1, o2, o3) \
	VSHUFI64X2 $0x44, x1, x0, o0 \
	VSHUFI64X2 $0xee, x1, x0, o2 \
	VSHUFI64X2 $0x44, x3, x2, x0 \
	VSHUFI64X2 $0xee, x3, x2, x2 \
	VMOVDQA64  o0, o1 \
	VPERMT2Q   x0, Z26, o1 \
	VPERMT2Q   x0, Z25, o0 \
	VMOVDQA64  o2, o3 \
	VPERMT2Q   x2, Z26, o3 \
	VPERMT2Q   x2, Z25, o2

// SPLIT turns two groups of stride-4 quartets, (x0 x1 | x2 x3) of group a in
// i0, i1 and of group b in i2, i3, into c0-c3 in Z0-Z3, group a in the low
// four lanes; JOIN is its inverse from Z0-Z3.
#define SPLIT(i0, i1, i2, i3) \
	VSHUFI64X2 $0x44, i2, i0, Z0 \
	VSHUFI64X2 $0xee, i2, i0, Z1 \
	VSHUFI64X2 $0x44, i3, i1, Z2 \
	VSHUFI64X2 $0xee, i3, i1, Z3

#define JOIN(o0, o1, o2, o3) \
	VSHUFI64X2 $0x44, Z1, Z0, o0 \
	VSHUFI64X2 $0xee, Z1, Z0, o2 \
	VSHUFI64X2 $0x44, Z3, Z2, o1 \
	VSHUFI64X2 $0xee, Z3, Z2, o3

// FWD4 is nttQuartets on Z0-Z3 with w1 in Z16-Z18, w2 in Z19-Z21 and w3 in
// Z22-Z24; the outputs, < 4q, replace the inputs.
#define FWD4 \
	CSUB2Q(Z0, Z4) \
	CSUB2Q(Z1, Z4) \
	SHOUP(Z2, Z16, Z17, Z18, Z2) \
	SHOUP(Z3, Z16, Z17, Z18, Z3) \
	VPADDQ Z2, Z0, Z4 \
	VPADDQ Z30, Z0, Z0 \
	VPSUBQ Z2, Z0, Z2 \
	VPADDQ Z3, Z1, Z5 \
	VPADDQ Z30, Z1, Z1 \
	VPSUBQ Z3, Z1, Z3 \
	CSUB2Q(Z4, Z6) \
	CSUB2Q(Z2, Z6) \
	SHOUP(Z5, Z19, Z20, Z21, Z5) \
	SHOUP(Z3, Z22, Z23, Z24, Z3) \
	VPADDQ    Z5, Z4, Z0 \
	VPADDQ    Z30, Z4, Z4 \
	VPSUBQ    Z5, Z4, Z1 \
	VPADDQ    Z3, Z2, Z6 \
	VPADDQ    Z30, Z2, Z2 \
	VPSUBQ    Z3, Z2, Z3 \
	VMOVDQA64 Z6, Z2

// INV4HEAD is the first layer of inttQuartets on Z0-Z3 with wA0 in
// Z16-Z18 and wA1 in Z19-Z21: u0 (reduced) in Z4, u1 in Z1, u2 (reduced)
// in Z5 and u3 in Z3.
#define INV4HEAD \
	VPADDQ Z1, Z0, Z4 \
	VPADDQ Z30, Z0, Z0 \
	VPSUBQ Z1, Z0, Z0 \
	VPADDQ Z3, Z2, Z5 \
	VPADDQ Z30, Z2, Z2 \
	VPSUBQ Z3, Z2, Z2 \
	CSUB2Q(Z4, Z6) \
	CSUB2Q(Z5, Z6) \
	SHOUP(Z0, Z16, Z17, Z18, Z1) \
	SHOUP(Z2, Z19, Z20, Z21, Z3)

// INV4 is inttQuartets on Z0-Z3 with wB in Z22-Z24; the outputs, < 2q,
// replace the inputs.
#define INV4 \
	INV4HEAD \
	VPADDQ    Z5, Z4, Z0 \
	VPADDQ    Z30, Z4, Z4 \
	VPSUBQ    Z5, Z4, Z4 \
	VPADDQ    Z3, Z1, Z5 \
	VPADDQ    Z30, Z1, Z1 \
	VPSUBQ    Z3, Z1, Z1 \
	CSUB2Q(Z0, Z6) \
	CSUB2Q(Z5, Z6) \
	SHOUP(Z4, Z22, Z23, Z24, Z2) \
	SHOUP(Z1, Z22, Z23, Z24, Z3) \
	VMOVDQA64 Z5, Z1

// func nttButterfliesLanes(x, y []uint64, w, ws, q uint64)
//
// nttButterflies over the pairs (x[j], y[j]), j < min(len(x), len(y))
// rounded down to a multiple of 8; the row kernel's halves are whole
// registers.
TEXT ·nttButterfliesLanes(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ y_len+32(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+64(FP))
	VPBROADCASTQ w+48(FP), Z16
	VPBROADCASTQ ws+56(FP), Z17
	VPSRLQ       $32, Z17, Z18

pair:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (SI), Z1
	CSUB2Q(Z0, Z4)
	SHOUP(Z1, Z16, Z17, Z18, Z1)
	VPADDQ    Z1, Z0, Z2
	VPADDQ    Z30, Z0, Z0
	VPSUBQ    Z1, Z0, Z0
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z0, (SI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       pair
	VZEROUPPER

done:
	RET

// func nttQuartetsLanes(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)
//
// One forward radix-4 pass (nttPass): nttQuartets on each of groups
// consecutive groups of 4h words of a, group g with the pair at tw1[2g] and
// the two pairs at tw23[4g]. nttPass slices a to 4·groups·h words, tw1 to
// 2·groups and tw23 to 4·groups. h is a positive multiple of 8, or 4 with
// groups even: then each iteration takes two groups (32 words), SPLIT
// putting group g in the low lanes and g+1 in the high ones.
TEXT ·nttQuartetsLanes(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ groups+24(FP), CX
	MOVQ h+32(FP), DX
	MOVQ tw1_base+40(FP), SI
	MOVQ tw23_base+64(FP), R8
	CONSTS(q+88(FP))
	CMPQ DX, $4
	JEQ  narrow
	MOVQ DX, R9
	SHLQ $3, R9

group:
	BCAST(0, SI, Z16, Z17, Z18)
	BCAST(0, R8, Z19, Z20, Z21)
	BCAST(16, R8, Z22, Z23, Z24)
	LEAQ (DI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ DX, BX

quartet:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (R12), Z3
	FWD4
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (R10)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (R12)
	ADDQ      $64, DI
	ADDQ      $64, R10
	ADDQ      $64, R11
	ADDQ      $64, R12
	SUBQ      $8, BX
	JNZ       quartet

	MOVQ R12, DI
	ADDQ $16, SI
	ADDQ $32, R8
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET

narrow:
	MOVQ  $0xf0, AX
	KMOVW AX, K1

pairOfGroups:
	BCAST2(0, 16, SI, Z16, Z17, Z18)
	BCAST2(0, 32, R8, Z19, Z20, Z21)
	BCAST2(16, 48, R8, Z22, Z23, Z24)
	VMOVDQU64 (DI), Z8
	VMOVDQU64 64(DI), Z9
	VMOVDQU64 128(DI), Z10
	VMOVDQU64 192(DI), Z11
	SPLIT(Z8, Z9, Z10, Z11)
	FWD4
	JOIN(Z8, Z9, Z10, Z11)
	VMOVDQU64 Z8, (DI)
	VMOVDQU64 Z9, 64(DI)
	VMOVDQU64 Z10, 128(DI)
	VMOVDQU64 Z11, 192(DI)
	ADDQ      $256, DI
	ADDQ      $32, SI
	ADDQ      $64, R8
	SUBQ      $2, CX
	JNZ       pairOfGroups
	VZEROUPPER
	RET

// func nttLastPassLanes(a, tw1, tw2 []uint64, q uint64)
//
// nttLastPass over the contiguous quartets a[4g..4g+3], each with the pair
// at tw1[2g] and the two pairs at tw2[4g], for as many quartets as all
// three slices hold, rounded down to a multiple of 8. TRANSPOSE gives each
// lane its own quartet and twiddles; the outputs are canonical.
TEXT ·nttLastPassLanes(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $2, CX
	MOVQ tw1_base+24(FP), SI
	MOVQ tw1_len+32(FP), AX
	SHRQ $1, AX
	MINLEN(AX, CX)
	MOVQ tw2_base+48(FP), R8
	MOVQ tw2_len+56(FP), AX
	SHRQ $2, AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+72(FP))
	PERMIDX

quartets:
	PAIRS(SI, Z16, Z17, Z18)
	VMOVDQU64 (R8), Z8
	VMOVDQU64 64(R8), Z9
	VMOVDQU64 128(R8), Z10
	VMOVDQU64 192(R8), Z11
	TRANSPOSE(Z8, Z9, Z10, Z11, Z19, Z20, Z22, Z23)
	VPSRLQ    $32, Z20, Z21
	VPSRLQ    $32, Z23, Z24
	VMOVDQU64 (DI), Z8
	VMOVDQU64 64(DI), Z9
	VMOVDQU64 128(DI), Z10
	VMOVDQU64 192(DI), Z11
	TRANSPOSE(Z8, Z9, Z10, Z11, Z0, Z1, Z2, Z3)
	FWD4
	CSUB2Q(Z0, Z4)
	CSUB2Q(Z1, Z5)
	CSUB2Q(Z2, Z6)
	CSUB2Q(Z3, Z7)
	CSUBQ(Z0, Z4)
	CSUBQ(Z1, Z5)
	CSUBQ(Z2, Z6)
	CSUBQ(Z3, Z7)
	UNTRANSPOSE(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11)
	VMOVDQU64 Z8, (DI)
	VMOVDQU64 Z9, 64(DI)
	VMOVDQU64 Z10, 128(DI)
	VMOVDQU64 Z11, 192(DI)
	ADDQ      $256, DI
	ADDQ      $128, SI
	ADDQ      $256, R8
	SUBQ      $8, CX
	JNZ       quartets
	VZEROUPPER

done:
	RET

// func inttFirstPassLanes(a, twA, twB []uint64, q uint64)
//
// inttFirstPass over the contiguous quartets a[4g..4g+3], each with the
// two pairs at twA[4g] and the pair at twB[2g], for as many quartets as all
// three slices hold, rounded down to a multiple of 8.
TEXT ·inttFirstPassLanes(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), DI
	MOVQ a_len+8(FP), CX
	SHRQ $2, CX
	MOVQ twA_base+24(FP), R8
	MOVQ twA_len+32(FP), AX
	SHRQ $2, AX
	MINLEN(AX, CX)
	MOVQ twB_base+48(FP), SI
	MOVQ twB_len+56(FP), AX
	SHRQ $1, AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+72(FP))
	PERMIDX

quartets:
	PAIRS(SI, Z22, Z23, Z24)
	VMOVDQU64 (R8), Z8
	VMOVDQU64 64(R8), Z9
	VMOVDQU64 128(R8), Z10
	VMOVDQU64 192(R8), Z11
	TRANSPOSE(Z8, Z9, Z10, Z11, Z16, Z17, Z19, Z20)
	VPSRLQ    $32, Z17, Z18
	VPSRLQ    $32, Z20, Z21
	VMOVDQU64 (DI), Z8
	VMOVDQU64 64(DI), Z9
	VMOVDQU64 128(DI), Z10
	VMOVDQU64 192(DI), Z11
	TRANSPOSE(Z8, Z9, Z10, Z11, Z0, Z1, Z2, Z3)
	INV4
	UNTRANSPOSE(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11)
	VMOVDQU64 Z8, (DI)
	VMOVDQU64 Z9, 64(DI)
	VMOVDQU64 Z10, 128(DI)
	VMOVDQU64 Z11, 192(DI)
	ADDQ      $256, DI
	ADDQ      $256, R8
	ADDQ      $128, SI
	SUBQ      $8, CX
	JNZ       quartets
	VZEROUPPER

done:
	RET

// func inttQuartetsLanes(a []uint64, groups, t int, twA, twB []uint64, q uint64)
//
// One inverse radix-4 pass (inttPass): inttQuartets on each of groups
// consecutive groups of 4t words of a, group g with the two pairs at
// twA[4g] and the pair at twB[2g]. inttPass slices a to 4·groups·t words,
// twA to 4·groups and twB to 2·groups. t is a positive multiple of 8, or 4
// with groups even, taken two groups at a time as in nttQuartetsLanes.
TEXT ·inttQuartetsLanes(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), DI
	MOVQ groups+24(FP), CX
	MOVQ t+32(FP), DX
	MOVQ twA_base+40(FP), R8
	MOVQ twB_base+64(FP), SI
	CONSTS(q+88(FP))
	CMPQ DX, $4
	JEQ  narrow
	MOVQ DX, R9
	SHLQ $3, R9

group:
	BCAST(0, R8, Z16, Z17, Z18)
	BCAST(16, R8, Z19, Z20, Z21)
	BCAST(0, SI, Z22, Z23, Z24)
	LEAQ (DI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ DX, BX

quartet:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (R12), Z3
	INV4
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (R10)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (R12)
	ADDQ      $64, DI
	ADDQ      $64, R10
	ADDQ      $64, R11
	ADDQ      $64, R12
	SUBQ      $8, BX
	JNZ       quartet

	MOVQ R12, DI
	ADDQ $32, R8
	ADDQ $16, SI
	DECQ CX
	JNZ  group
	VZEROUPPER
	RET

narrow:
	MOVQ  $0xf0, AX
	KMOVW AX, K1

pairOfGroups:
	BCAST2(0, 32, R8, Z16, Z17, Z18)
	BCAST2(16, 48, R8, Z19, Z20, Z21)
	BCAST2(0, 16, SI, Z22, Z23, Z24)
	VMOVDQU64 (DI), Z8
	VMOVDQU64 64(DI), Z9
	VMOVDQU64 128(DI), Z10
	VMOVDQU64 192(DI), Z11
	SPLIT(Z8, Z9, Z10, Z11)
	INV4
	JOIN(Z8, Z9, Z10, Z11)
	VMOVDQU64 Z8, (DI)
	VMOVDQU64 Z9, 64(DI)
	VMOVDQU64 Z10, 128(DI)
	VMOVDQU64 Z11, 192(DI)
	ADDQ      $256, DI
	ADDQ      $64, R8
	ADDQ      $32, SI
	SUBQ      $2, CX
	JNZ       pairOfGroups
	VZEROUPPER
	RET

// func inttLastQuartetsLanes(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)
//
// inttLastQuartets over the quartets (x0[j], x1[j], x2[j], x3[j]), j below
// the shortest length rounded down to a multiple of 8: layer 2 multiplies
// the sums by ni = N^-1 and the differences by wn, and the outputs are
// canonical.
TEXT ·inttLastQuartetsLanes(SB), NOSPLIT, $0-168
	MOVQ x0_base+0(FP), DI
	MOVQ x0_len+8(FP), DX
	MOVQ x1_base+24(FP), R10
	MOVQ x1_len+32(FP), AX
	MINLEN(AX, DX)
	MOVQ x2_base+48(FP), R11
	MOVQ x2_len+56(FP), AX
	MINLEN(AX, DX)
	MOVQ x3_base+72(FP), R12
	MOVQ x3_len+80(FP), AX
	MINLEN(AX, DX)
	ANDQ $-8, DX
	JZ   done
	CONSTS(q+160(FP))
	VPBROADCASTQ wA0+96(FP), Z16
	VPBROADCASTQ wA0s+104(FP), Z17
	VPBROADCASTQ wA1+112(FP), Z19
	VPBROADCASTQ wA1s+120(FP), Z20
	VPBROADCASTQ ni+128(FP), Z22
	VPBROADCASTQ nis+136(FP), Z23
	VPBROADCASTQ wn+144(FP), Z25
	VPBROADCASTQ wns+152(FP), Z26
	VPSRLQ       $32, Z17, Z18
	VPSRLQ       $32, Z20, Z21
	VPSRLQ       $32, Z23, Z24
	VPSRLQ       $32, Z26, Z27

quartet:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (R10), Z1
	VMOVDQU64 (R11), Z2
	VMOVDQU64 (R12), Z3
	INV4HEAD
	VPADDQ    Z5, Z4, Z0
	VPADDQ    Z30, Z4, Z4
	VPSUBQ    Z5, Z4, Z4
	VPADDQ    Z3, Z1, Z5
	VPADDQ    Z30, Z1, Z1
	VPSUBQ    Z3, Z1, Z1
	SHOUP(Z0, Z22, Z23, Z24, Z0)
	SHOUP(Z5, Z22, Z23, Z24, Z5)
	SHOUP(Z4, Z25, Z26, Z27, Z2)
	SHOUP(Z1, Z25, Z26, Z27, Z3)
	CSUBQ(Z0, Z6)
	CSUBQ(Z5, Z6)
	CSUBQ(Z2, Z6)
	CSUBQ(Z3, Z6)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z5, (R10)
	VMOVDQU64 Z2, (R11)
	VMOVDQU64 Z3, (R12)
	ADDQ      $64, DI
	ADDQ      $64, R10
	ADDQ      $64, R11
	ADDQ      $64, R12
	SUBQ      $8, DX
	JNZ       quartet
	VZEROUPPER

done:
	RET

// func inttButterfliesLastLanes(x, y []uint64, ni, nis, wn, wns, q uint64)
//
// inttButterfliesLast over the pairs (x[j], y[j]), j < min(len(x),
// len(y)) rounded down to a multiple of 8: x' = (x + y)·ni and
// y' = (x + 2q − y)·wn, canonical.
TEXT ·inttButterfliesLastLanes(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ y_len+32(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+80(FP))
	VPBROADCASTQ ni+48(FP), Z16
	VPBROADCASTQ nis+56(FP), Z17
	VPBROADCASTQ wn+64(FP), Z19
	VPBROADCASTQ wns+72(FP), Z20
	VPSRLQ       $32, Z17, Z18
	VPSRLQ       $32, Z20, Z21

pair:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (SI), Z1
	VPADDQ    Z1, Z0, Z2
	VPADDQ    Z30, Z0, Z0
	VPSUBQ    Z1, Z0, Z0
	SHOUP(Z2, Z16, Z17, Z18, Z2)
	SHOUP(Z0, Z19, Z20, Z21, Z0)
	CSUBQ(Z2, Z4)
	CSUBQ(Z0, Z4)
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z0, (SI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       pair
	VZEROUPPER

done:
	RET
