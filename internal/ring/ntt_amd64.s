#include "textflag.h"
#include "lanes_amd64.h"

// The lane tiers of the fused NTT row kernels (ntt.go): every pass of
// nttRowRadix4 and inttRowRadix4 with eight coefficients per zmm register.
// ntt_passes_amd64.h holds the pass bodies once; this file instantiates
// them three times, with the Shoup product as the only difference:
//
//   - The DQ tier (nttButterfliesLanes, …; AVX-512F and DQ) takes the exact
//     high word of the 64×64-bit product x·s from four 32×32 VPMULUDQ
//     partial products and the two low words from VPMULLQ (SHOUP), so it
//     holds for any q < 2^62 and is word for word the Go pass it replaces.
//   - The IFMA tier (nttButterfliesIFMA, …; AVX-512F and IFMA) serves
//     q < 2^50, where the [0, 4q) window keeps every multiplied word below
//     2^52: one VPMADD52HUQ and two VPMADD52LUQ (SHOUP52) with the 52-bit
//     companion s>>12 = ⌊w·2^52/q⌋, so it reads the same twiddle tables.
//     Its lazy words are the Go pass's residues in the same window but may
//     differ from them by q; the passes that end a transform reduce, so the
//     transform's words are the Go kernel's.
//   - The wide IFMA tier (nttButterfliesIFMA51, …) serves 2^50 ≤ q < 2^51,
//     where 4q passes 2^52: each multiplicand, below 4q in every pass,
//     first drops into [0, 2q) by one CSUB2Q on Z14, which SHOUP52 leaves
//     free, and SHOUP52 then holds as in the IFMA tier. The window between
//     passes is unchanged, and so are the transform's words.
//
// Register conventions, shared by every function (the macros of
// lanes_amd64.h take Z29-Z31 and Z12-Z15):
//
//	Z31 = q, Z30 = 2q, Z29 = the tier's mask (CONSTS, CONSTS52)
//	Z0-Z3   the four coefficients of a quartet (or x, y of a radix-2 pair)
//	Z4-Z7   butterfly temporaries
//	Z8-Z11  loads and stores around the in-register permutes
//	Z12-Z15 SHOUP's temporaries (Z15 = 2^52 − q in the IFMA tiers, Z14
//	        the wide IFMA tier's CSUB2Q temporary)
//	Z16-Z24 twiddles, each as w, its Shoup companion s and sh, s>>32 in
//	        the DQ tier and s>>12 in the IFMA tiers (Z16-Z27 in
//	        inttLastQuartets, which has four)
//	Z25-Z28 the permute index vectors (the stride-1 passes)
//
// Each conditional subtraction of 2q (or q) is one VPMINUQ(u, u−2q): when
// u < 2q the difference wraps past u, so the minimum is u itself, which is
// the Go kernels' branch for every 64-bit u.

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

// BCAST sets w, s and sh = s>>SHSHIFT from the pair (w, s) at off(ptr) for
// every lane; BCAST2 does it for two groups, the low four lanes from offA
// and the high four (K1) from offB.
#define BCAST(off, ptr, w, s, sh) \
	VPBROADCASTQ off(ptr), w \
	VPBROADCASTQ off+8(ptr), s \
	VPSRLQ       SHSHIFT, s, sh

#define BCAST2(offA, offB, ptr, w, s, sh) \
	VPBROADCASTQ offA(ptr), w \
	VPBROADCASTQ offB(ptr), K1, w \
	VPBROADCASTQ offA+8(ptr), s \
	VPBROADCASTQ offB+8(ptr), K1, s \
	VPSRLQ       SHSHIFT, s, sh

// PAIRS sets w, s and sh from 8 (w, s) pairs at ptr, one per lane.
#define PAIRS(ptr, w, s, sh) \
	VMOVDQU64 (ptr), w \
	VPERMT2Q  64(ptr), Z27, w \
	VMOVDQU64 (ptr), s \
	VPERMT2Q  64(ptr), Z28, s \
	VPSRLQ    SHSHIFT, s, sh

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

// The DQ tier.
#define SHSHIFT $32
#define NTT_BUTTERFLIES ·nttButterfliesLanes
#define NTT_QUARTETS ·nttQuartetsLanes
#define NTT_LAST_PASS ·nttLastPassLanes
#define INTT_FIRST_PASS ·inttFirstPassLanes
#define INTT_QUARTETS ·inttQuartetsLanes
#define INTT_LAST_QUARTETS ·inttLastQuartetsLanes
#define INTT_BUTTERFLIES_LAST ·inttButterfliesLastLanes
#include "ntt_passes_amd64.h"

// The IFMA tier.
#undef CONSTS
#undef SHOUP
#define CONSTS(qarg) CONSTS52(qarg)
#define SHOUP(x, w, s, sh, r) SHOUP52(x, w, s, sh, r)
#define SHSHIFT $12
#define NTT_BUTTERFLIES ·nttButterfliesIFMA
#define NTT_QUARTETS ·nttQuartetsIFMA
#define NTT_LAST_PASS ·nttLastPassIFMA
#define INTT_FIRST_PASS ·inttFirstPassIFMA
#define INTT_QUARTETS ·inttQuartetsIFMA
#define INTT_LAST_QUARTETS ·inttLastQuartetsIFMA
#define INTT_BUTTERFLIES_LAST ·inttButterfliesLastIFMA
#include "ntt_passes_amd64.h"

// The wide IFMA tier: CONSTS52 as above, SHOUP52 on the multiplicand
// reduced below 2q.
#undef SHOUP
#define SHOUP(x, w, s, sh, r) \
	CSUB2Q(x, Z14) \
	SHOUP52(x, w, s, sh, r)
#define SHSHIFT $12
#define NTT_BUTTERFLIES ·nttButterfliesIFMA51
#define NTT_QUARTETS ·nttQuartetsIFMA51
#define NTT_LAST_PASS ·nttLastPassIFMA51
#define INTT_FIRST_PASS ·inttFirstPassIFMA51
#define INTT_QUARTETS ·inttQuartetsIFMA51
#define INTT_LAST_QUARTETS ·inttLastQuartetsIFMA51
#define INTT_BUTTERFLIES_LAST ·inttButterfliesLastIFMA51
#include "ntt_passes_amd64.h"
