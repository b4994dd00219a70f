// The bodies of the Shoup rows (ops.go), one source for both lane tiers:
// elem_amd64.s includes this file once per tier, after defining
//
//	MUL_SHOUP_ROW, MUL_SHOUP_ADD_ROW, SUB_MUL_SHOUP_ROW  the function names
//	SHSHIFT  the shift that makes sh from the Shoup companion s
//	CONSTS, SHOUP  the tier's constants and Shoup product (lanes_amd64.h)
//
// and the file undefines the names and SHSHIFT again at its end. The
// registers are elem_amd64.s's.

// func MUL_SHOUP_ROW(a, out []uint64, w, ws, q uint64)
//
// out[j] = mod.MulShoup(a[j], w, ws, q) (mulShoupRowGo).
TEXT MUL_SHOUP_ROW(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ out_base+24(FP), DI
	MOVQ out_len+32(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+64(FP))
	SHOUPCONSTS(w+48(FP), ws+56(FP))

loop:
	VMOVDQU64 (SI), Z0
	SHOUP(Z0, Z21, Z22, Z23, Z1)
	CSUBQ(Z1, Z2)
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

// func MUL_SHOUP_ADD_ROW(a, out []uint64, w, ws, q uint64)
//
// out[j] = mod.Add(out[j], mod.MulShoup(a[j], w, ws, q), q)
// (mulShoupAddRowGo).
TEXT MUL_SHOUP_ADD_ROW(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ out_base+24(FP), DI
	MOVQ out_len+32(FP), AX
	MINLEN(AX, CX)
	ANDQ $-8, CX
	JZ   done
	CONSTS(q+64(FP))
	SHOUPCONSTS(w+48(FP), ws+56(FP))

loop:
	VMOVDQU64 (SI), Z0
	SHOUP(Z0, Z21, Z22, Z23, Z1)
	CSUBQ(Z1, Z2)
	VPADDQ    (DI), Z1, Z1
	CSUBQ(Z1, Z2)
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

// func SUB_MUL_SHOUP_ROW(a, b, out []uint64, w, ws, q uint64)
//
// out[j] = mod.MulShoup(mod.Sub(a[j], b[j], q), w, ws, q)
// (subMulShoupRowGo). The subtraction is mod.Sub for every 64-bit a and b:
// a − b, plus q where a < b.
TEXT SUB_MUL_SHOUP_ROW(SB), NOSPLIT, $0-96
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
	CONSTS(q+88(FP))
	SHOUPCONSTS(w+72(FP), ws+80(FP))

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPCMPUQ   $1, Z1, Z0, K2
	VPSUBQ    Z1, Z0, Z0
	VPADDQ    Z31, Z0, K2, Z0
	SHOUP(Z0, Z21, Z22, Z23, Z1)
	CSUBQ(Z1, Z2)
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       loop
	VZEROUPPER

done:
	RET

#undef MUL_SHOUP_ROW
#undef MUL_SHOUP_ADD_ROW
#undef SUB_MUL_SHOUP_ROW
#undef SHSHIFT
