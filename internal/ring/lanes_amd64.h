// The lane arithmetic shared by the AVX-512 tiers of ntt_amd64.s and
// elem_amd64.s: eight 64-bit words per zmm register.
//
// The DQ tier (CONSTS, SHOUP; AVX-512F and DQ) is exact for every 64-bit
// input, so each lane kernel is word for word the Go row it replaces.
// The IFMA tier (CONSTS52, SHOUP52; AVX-512F and IFMA) computes a Shoup
// product from 52-bit multiplies: it needs q < 2^51 and every multiplied
// word below 2^52, and then leaves the same canonical words as the DQ tier
// wherever a kernel ends in a reduction (its [0, 2q) lazy products are the
// same residues but may differ from the DQ tier's by q). The Montgomery
// product of either tier (MONTMUL, MONTMUL52) is elem_amd64.s's, the only
// file that multiplies two data words; MONTMUL52 needs q < 2^51 and loads
// CONSTS52 too.
//
// Registers the macros assume:
//
//	Z31 = q, Z30 = 2q (CONSTS, CONSTS52)
//	Z29 = 2^32-1 (CONSTS) or 2^52-1 (CONSTS52)
//	Z15 = 2^52-q (CONSTS52)
//	Z12-Z15 MULHI's temporaries (so SHOUP's too); Z12-Z13 SHOUP52's

// CONSTS loads q, 2q and the low-half mask.
#define CONSTS(qarg) \
	VPBROADCASTQ qarg, Z31 \
	VPADDQ       Z31, Z31, Z30 \
	MOVQ         $0xffffffff, AX \
	VPBROADCASTQ AX, Z29

// MULHI sets Z12 = hi(x·y), the exact high word of the 64×64-bit product,
// with yh = y>>32. With x = x1·2^32 + x0 and y = y1·2^32 + y0,
// m = x1·y0 + hi32(x0·y0) and x0·y1 + lo32(m) cannot overflow, and
// hi(x·y) = x1·y1 + hi32(m) + hi32(x0·y1 + lo32(m)). x, y and yh are not
// Z12-Z15; clobbers Z13-Z15.
#define MULHI(x, y, yh) \
	VPSRLQ   $32, x, Z12 \
	VPMULUDQ y, x, Z13 \
	VPMULUDQ yh, x, Z14 \
	VPMULUDQ y, Z12, Z15 \
	VPMULUDQ yh, Z12, Z12 \
	VPSRLQ   $32, Z13, Z13 \
	VPADDQ   Z13, Z15, Z15 \
	VPANDQ   Z29, Z15, Z13 \
	VPSRLQ   $32, Z15, Z15 \
	VPADDQ   Z13, Z14, Z14 \
	VPSRLQ   $32, Z14, Z14 \
	VPADDQ   Z15, Z12, Z12 \
	VPADDQ   Z14, Z12, Z12

// SHOUP sets r = x·w − hi(x·s)·q mod 2^64, in [0, 2q) for any 64-bit x
// (mod.MulShoupLazy); sh = s>>32. r may be x; clobbers Z12-Z15.
#define SHOUP(x, w, s, sh, r) \
	MULHI(x, s, sh) \
	VPMULLQ  Z31, Z12, Z12 \
	VPMULLQ  w, x, r \
	VPSUBQ   Z12, r, r

// CONSTS52 loads q, 2q, the 52-bit mask and 2^52 − q.
#define CONSTS52(qarg) \
	VPBROADCASTQ qarg, Z31 \
	VPADDQ       Z31, Z31, Z30 \
	MOVQ         $0x10000000000000, AX \
	SUBQ         qarg, AX \
	VPBROADCASTQ AX, Z15 \
	MOVQ         $0xfffffffffffff, AX \
	VPBROADCASTQ AX, Z29

// SHOUP52 sets r = x·w − ⌊x·s′/2^52⌋·q, in [0, 2q), for q < 2^51, w < q
// and x < 2^52, where sh = s′ = s>>12 = ⌊w·2^52/q⌋ (s, the 64-bit Shoup
// companion, is not read). x·s′/2^52 falls short of x·w/q by less than
// x/2^52 < 1, so the quotient is ⌊x·w/q⌋ or one less, and r < 2q < 2^52
// (q < 2^51) is its value mod 2^52: lo52(x·w) + lo52(⌊x·s′/2^52⌋·(2^52 − q)), masked.
// Every VPMADD52 source is below 2^52, so each reads its whole operand.
// r may be x; clobbers Z12-Z13.
#define SHOUP52(x, w, s, sh, r) \
	VPXORQ      Z12, Z12, Z12 \
	VPMADD52HUQ sh, x, Z12 \
	VPXORQ      Z13, Z13, Z13 \
	VPMADD52LUQ w, x, Z13 \
	VPMADD52LUQ Z15, Z12, Z13 \
	VPANDQ      Z29, Z13, r

// MINLEN sets r = min(r, x), signed.
#define MINLEN(x, r) \
	CMPQ    x, r \
	CMOVQLT x, r

// CSUBQ subtracts q from x when x is at least q: when x < q the difference
// wraps past x, so VPMINUQ keeps x, which is the Go kernels' branch for
// every 64-bit x.
#define CSUBQ(x, tmp) \
	VPSUBQ  Z31, x, tmp \
	VPMINUQ tmp, x, x
