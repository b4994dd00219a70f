// The lane arithmetic shared by the AVX-512F/DQ tiers (ntt_amd64.s,
// elem_amd64.s): eight 64-bit words per zmm register, exact for every 64-bit
// input, so each lane kernel is word for word the Go row it replaces.
//
// Registers the macros assume:
//
//	Z31 = q, Z30 = 2q, Z29 = 2^32-1 (CONSTS)
//	Z12-Z15 MULHI's temporaries (so SHOUP's too)

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
