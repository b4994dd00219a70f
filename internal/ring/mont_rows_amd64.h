// The bodies of the Montgomery rows (ops.go), one source for both lane
// tiers: elem_amd64.s includes this file once per tier, after defining
//
//	MUL_ROW, MUL_ADD_ROW, GATHER_MUL_ROW, GATHER_MUL_ADD_ROW  the names
//	CONSTS, REDCCONSTS, MONTMUL  the tier's constants and product
//
// and the file undefines the names again at its end. Every row computes
// mr.Mul(a[j], b[j]) (a[j] the gathered word in the gather rows), so each
// tier is word for word the Go row on the inputs it serves. The registers
// are elem_amd64.s's.

// func MUL_ROW(a, b, out []uint64, q, qInv uint64)
//
// out[j] = mr.Mul(a[j], b[j]) (mulRowGo).
TEXT MUL_ROW(SB), NOSPLIT, $0-88
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

// func MUL_ADD_ROW(a, b, out []uint64, q, qInv uint64)
//
// out[j] = mod.Add(out[j], mr.Mul(a[j], b[j]), q) (mulAddRowGo).
TEXT MUL_ADD_ROW(SB), NOSPLIT, $0-88
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

// func GATHER_MUL_ROW(a []uint64, table []int, b, out []uint64, q, qInv uint64)
//
// out[j] = mr.Mul(a[table[j]], b[j]) (gatherMulRowGo) over the common length
// of table, b and out. The gather checks nothing: every table[j] must index
// a (MulKeyPair checks that before any row runs).
TEXT GATHER_MUL_ROW(SB), NOSPLIT, $0-112
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

// func GATHER_MUL_ADD_ROW(a []uint64, table []int, b, out []uint64, q, qInv uint64)
//
// out[j] = mod.Add(out[j], mr.Mul(a[table[j]], b[j]), q)
// (gatherMulAddRowGo), with GATHER_MUL_ROW's precondition on table.
TEXT GATHER_MUL_ADD_ROW(SB), NOSPLIT, $0-112
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

#undef MUL_ROW
#undef MUL_ADD_ROW
#undef GATHER_MUL_ROW
#undef GATHER_MUL_ADD_ROW
