package mod

import (
	"fmt"
	"math/bits"
)

// Montgomery holds the precomputed constants for Montgomery-domain arithmetic
// with a fixed odd modulus q < 2^62 and the word-sized radix R = 2^64.
//
// A value x is "in Montgomery form" (M-form) when the word stored is
// x·R mod q. The fused reduction REDC maps a 128-bit T < q·2^64 to
// T·R^-1 mod q in three multiplies, so a product of two M-form words REDCs
// straight back to M-form: REDC(aR · bR) = abR. Multiplication by a plain
// (non-M-form) constant likewise preserves the operand's form, because
// (aR)·w ≡ (aw)R. The ring layer exploits both identities: operand×operand
// kernels keep both sides in M-form, while fixed constants (twiddle factors,
// scalars) stay plain and multiply on the Shoup discipline, which preserves
// the operand's form for the same reason.
//
// The lazy variants return a representative < 2q instead of canonical < q,
// saving the trailing conditional subtraction; q < 2^62 leaves two headroom
// bits, so sums u+t of two lazy values stay below 4q < 2^64 and a butterfly
// network can defer normalization to a single final pass.
type Montgomery struct {
	Q    uint64
	QInv uint64 // -q^-1 mod 2^64
	R2   uint64 // 2^128 mod q, the M-form conversion constant
	Fold uint64 // ⌊2^64/q⌋, the Shoup constant Reduce128 folds the high word with
}

// NewMontgomery precomputes the Montgomery constants for q. It panics if q is
// even, zero, or wider than MaxModulusBits — the REDC bounds below need
// 4q < 2^64 and an odd modulus for q^-1 mod 2^64 to exist.
func NewMontgomery(q uint64) Montgomery {
	if q == 0 || q&1 == 0 || bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("mod: modulus %d unsupported for Montgomery arithmetic (need odd, < 2^%d)", q, MaxModulusBits))
	}
	// q^-1 mod 2^64 by Newton iteration: inv ≡ q^-1 mod 2^3 seeds the
	// recurrence inv ← inv·(2 − q·inv), which doubles the valid bit count
	// each step (3 → 6 → 12 → 24 → 48 → 96 ⊇ 64).
	inv := q // correct mod 2^3 for odd q
	for i := 0; i < 5; i++ {
		inv *= 2 - q*inv
	}
	// R2 = 2^128 mod q by 64 doublings of 2^64 mod q.
	r2 := (^uint64(0) % q) + 1 // 2^64 mod q (q < 2^63, so no wrap to 0 unless q | 2^64, impossible for odd q > 1)
	if r2 == q {
		r2 = 0
	}
	for i := 0; i < 64; i++ {
		r2 <<= 1
		if r2 >= q {
			r2 -= q
		}
	}
	return Montgomery{Q: q, QInv: -inv, R2: r2, Fold: ^uint64(0) / q}
}

// REDCLazy reduces T = hi·2^64+lo to T·R^-1 mod q with the result < 2q,
// valid whenever hi < q (equivalently T < q·2^64).
func (mr Montgomery) REDCLazy(hi, lo uint64) uint64 {
	m := lo * mr.QInv
	mqHi, mqLo := bits.Mul64(m, mr.Q)
	_, carry := bits.Add64(lo, mqLo, 0)
	return hi + mqHi + carry
}

// REDC reduces T = hi·2^64+lo to the canonical T·R^-1 mod q, valid whenever
// hi < q.
func (mr Montgomery) REDC(hi, lo uint64) uint64 {
	r := mr.REDCLazy(hi, lo)
	if r >= mr.Q {
		r -= mr.Q
	}
	return r
}

// Mul returns REDC(a·b), canonical < q. For a, b in M-form this is the
// M-form product; for one plain operand it is the plain product scaled the
// same way as the other operand. Valid whenever a·b < q·2^64 — in particular
// for any a < 4q, b < q.
func (mr Montgomery) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return mr.REDC(hi, lo)
}

// MForm returns x·R mod q (canonical) for any 64-bit x, converting a true
// residue into Montgomery form.
func (mr Montgomery) MForm(x uint64) uint64 {
	return mr.Mul(x, mr.R2)
}

// Reduce128 returns (hi·2^64+lo)·R^-1 mod q, canonical, for ANY 128-bit
// input: hi is folded below q with the Shoup constant ⌊2^64/q⌋ (the
// estimate ⌊hi·Fold/2^64⌋ undershoots ⌊hi/q⌋ by at most one, so one
// conditional subtraction finishes it), and one REDC divides by R; both
// subtractions are written min(x, x−q), which the compiler turns into a
// conditional move and which keeps the method inlinable. A sum of
// M-form products carries R², so this lands it directly in M-form — the
// lazy MAC's reduction without Barrett's four wide multiplies.
func (mr Montgomery) Reduce128(hi, lo uint64) uint64 {
	qt, _ := bits.Mul64(hi, mr.Fold)
	hi -= qt * mr.Q
	r := mr.REDCLazy(min(hi, hi-mr.Q), lo)
	return min(r, r-mr.Q)
}

// IForm returns x·R^-1 mod q (canonical) for any 64-bit x, converting a
// Montgomery-form word back to its true residue.
func (mr Montgomery) IForm(x uint64) uint64 {
	return mr.REDC(0, x)
}
