// The bodies of the fused NTT row passes (ntt.go), one source for every
// lane pass set: ntt_amd64.s includes this file once per set (DQ, IFMA and
// the wide IFMA51), after defining
//
//	NTT_BUTTERFLIES … INTT_BUTTERFLIES_LAST  the seven function names
//	SHSHIFT  the shift that makes sh from a twiddle's Shoup companion s
//	CONSTS, SHOUP  the tier's constants and Shoup product (lanes_amd64.h)
//
// and the file undefines the names and SHSHIFT again at its end. The
// arithmetic, registers and macros are ntt_amd64.s's.

// func NTT_BUTTERFLIES(x, y []uint64, w, ws, q uint64)
//
// nttButterflies over the pairs (x[j], y[j]), j < min(len(x), len(y))
// rounded down to a multiple of 8; the row kernel's halves are whole
// registers.
TEXT NTT_BUTTERFLIES(SB), NOSPLIT, $0-72
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
	VPSRLQ       SHSHIFT, Z17, Z18

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

// func NTT_QUARTETS(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)
//
// One forward radix-4 pass (nttPass): nttQuartets on each of groups
// consecutive groups of 4h words of a, group g with the pair at tw1[2g] and
// the two pairs at tw23[4g]. nttPass slices a to 4·groups·h words, tw1 to
// 2·groups and tw23 to 4·groups. h is a positive multiple of 8, or 4 with
// groups even: then each iteration takes two groups (32 words), SPLIT
// putting group g in the low lanes and g+1 in the high ones.
TEXT NTT_QUARTETS(SB), NOSPLIT, $0-96
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

// func NTT_LAST_PASS(a, tw1, tw2 []uint64, q uint64)
//
// nttLastPass over the contiguous quartets a[4g..4g+3], each with the pair
// at tw1[2g] and the two pairs at tw2[4g], for as many quartets as all
// three slices hold, rounded down to a multiple of 8. TRANSPOSE gives each
// lane its own quartet and twiddles; the outputs are canonical.
TEXT NTT_LAST_PASS(SB), NOSPLIT, $0-80
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
	VPSRLQ    SHSHIFT, Z20, Z21
	VPSRLQ    SHSHIFT, Z23, Z24
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

// func INTT_FIRST_PASS(a, twA, twB []uint64, q uint64)
//
// inttFirstPass over the contiguous quartets a[4g..4g+3], each with the
// two pairs at twA[4g] and the pair at twB[2g], for as many quartets as all
// three slices hold, rounded down to a multiple of 8.
TEXT INTT_FIRST_PASS(SB), NOSPLIT, $0-80
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
	VPSRLQ    SHSHIFT, Z17, Z18
	VPSRLQ    SHSHIFT, Z20, Z21
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

// func INTT_QUARTETS(a []uint64, groups, t int, twA, twB []uint64, q uint64)
//
// One inverse radix-4 pass (inttPass): inttQuartets on each of groups
// consecutive groups of 4t words of a, group g with the two pairs at
// twA[4g] and the pair at twB[2g]. inttPass slices a to 4·groups·t words,
// twA to 4·groups and twB to 2·groups. t is a positive multiple of 8, or 4
// with groups even, taken two groups at a time as in nttQuartetsLanes.
TEXT INTT_QUARTETS(SB), NOSPLIT, $0-96
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

// func INTT_LAST_QUARTETS(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)
//
// inttLastQuartets over the quartets (x0[j], x1[j], x2[j], x3[j]), j below
// the shortest length rounded down to a multiple of 8: layer 2 multiplies
// the sums by ni = N^-1 and the differences by wn, and the outputs are
// canonical.
TEXT INTT_LAST_QUARTETS(SB), NOSPLIT, $0-168
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
	VPSRLQ       SHSHIFT, Z17, Z18
	VPSRLQ       SHSHIFT, Z20, Z21
	VPSRLQ       SHSHIFT, Z23, Z24
	VPSRLQ       SHSHIFT, Z26, Z27

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

// func INTT_BUTTERFLIES_LAST(x, y []uint64, ni, nis, wn, wns, q uint64)
//
// inttButterfliesLast over the pairs (x[j], y[j]), j < min(len(x),
// len(y)) rounded down to a multiple of 8: x' = (x + y)·ni and
// y' = (x + 2q − y)·wn, canonical.
TEXT INTT_BUTTERFLIES_LAST(SB), NOSPLIT, $0-88
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
	VPSRLQ       SHSHIFT, Z17, Z18
	VPSRLQ       SHSHIFT, Z20, Z21

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

#undef NTT_BUTTERFLIES
#undef NTT_QUARTETS
#undef NTT_LAST_PASS
#undef INTT_FIRST_PASS
#undef INTT_QUARTETS
#undef INTT_LAST_QUARTETS
#undef INTT_BUTTERFLIES_LAST
#undef SHSHIFT
