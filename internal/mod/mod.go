// Package mod implements 64-bit modular arithmetic for word-sized NTT-friendly
// primes, the scalar substrate of the Full-RNS CKKS scheme accelerated by BTS.
//
// All moduli handled by this package are odd primes q < 2^62, which leaves
// enough headroom for the lazy reductions used by the Barrett and Shoup
// multiplication routines. The package also provides deterministic 64-bit
// primality testing and generation of NTT-friendly primes (q ≡ 1 mod 2N).
package mod

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width. Keeping q < 2^62
// guarantees that 3q fits in a 64-bit word, which the Barrett reduction
// below relies on.
const MaxModulusBits = 62

// Add returns a+b mod q. Inputs must already be reduced.
//
// Add, Sub and Neg are branch-free: the borrow of one subtraction masks the
// correcting q, so an element-wise loop over them carries no data-dependent
// jump. On any 64-bit words (reduced or not) Add is (a+b) − q when that sum
// is ≥ q and the sum otherwise, and Sub is a − b plus q when a < b, all
// mod 2^64 — the lane kernels' raw-word arithmetic mirrors exactly this.
func Add(a, b, q uint64) uint64 {
	d, borrow := bits.Sub64(a+b, q, 0)
	return d + (q & -borrow)
}

// Sub returns a-b mod q. Inputs must already be reduced.
func Sub(a, b, q uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	return d + (q & -borrow)
}

// Neg returns -a mod q (0 for a = 0). The input must already be reduced.
func Neg(a, q uint64) uint64 { return Sub(0, a, q) }

// Mul returns a*b mod q using a 128-bit product and hardware division.
// It is the slow, always-correct fallback; hot paths use Barrett or Shoup.
func Mul(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// Barrett holds the precomputed constant floor(2^128/q) used for fast
// modular multiplication with a fixed modulus.
type Barrett struct {
	Q  uint64
	mu [2]uint64 // mu[0]*2^64 + mu[1] = floor(2^128 / q), hi word first
}

// NewBarrett precomputes the Barrett constant for q. It panics if q is 0 or
// wider than MaxModulusBits, which would void the reduction's error bound.
func NewBarrett(q uint64) Barrett {
	if q == 0 || bits.Len64(q) > MaxModulusBits {
		panic(fmt.Sprintf("mod: modulus %d outside supported range (0, 2^%d)", q, MaxModulusBits))
	}
	// Compute floor(2^128 / q) with schoolbook long division on the
	// 128-bit value 2^128-1 (the -1 never changes the quotient because q>1
	// never divides 2^128 exactly for odd q... it does change it for q=1,
	// which is excluded).
	hi := ^uint64(0) / q
	rem := ^uint64(0) % q
	// Now divide (rem+1)*2^64 by q for the low word.
	r := rem + 1
	var lo uint64
	if r == q { // (2^64-1 mod q)+1 == q means q | 2^64*... handle carry
		lo = 0
		hi++
	} else {
		lo, _ = bits.Div64(r%q, 0, q)
	}
	return Barrett{Q: q, mu: [2]uint64{hi, lo}}
}

// Mul returns a*b mod q via Barrett reduction. Inputs must be < q.
func (br Barrett) Mul(a, b uint64) uint64 {
	ahi, alo := bits.Mul64(a, b)
	return br.Reduce128(ahi, alo)
}

// Reduce128 reduces the 128-bit value ahi*2^64+alo modulo q for ANY 128-bit
// input, not only products of reduced operands: the Barrett quotient is only
// needed mod 2^64 (the remainder fits a word), and the truncation undershoot
// stays ≤ 2 regardless of the input's magnitude, which the two conditional
// subtractions absorb. This is what lets BConv's stage-2 dot products sum
// many unreduced products and reduce once.
func (br Barrett) Reduce128(ahi, alo uint64) uint64 {
	// qhat = floor(a*mu / 2^128), computed discarding the lowest partial
	// product's low word; the truncation undershoots floor(a/q) by at most
	// two, hence the two conditional subtractions at the end.
	c0, _ := bits.Mul64(alo, br.mu[1])
	t1hi, t1lo := bits.Mul64(ahi, br.mu[1])
	t2hi, t2lo := bits.Mul64(alo, br.mu[0])
	s, c1 := bits.Add64(t1lo, t2lo, 0)
	_, c2 := bits.Add64(s, c0, 0)
	qhat := ahi*br.mu[0] + t1hi + t2hi + c1 + c2
	r := alo - qhat*br.Q
	if r >= br.Q {
		r -= br.Q
	}
	if r >= br.Q {
		r -= br.Q
	}
	return r
}

// Reduce returns a mod q for a full 64-bit a.
func (br Barrett) Reduce(a uint64) uint64 {
	return br.Reduce128(0, a)
}

// ShoupPrecomp returns floor(w * 2^64 / q), the Shoup constant attached to a
// fixed multiplicand w (e.g. an NTT twiddle factor).
func ShoupPrecomp(w, q uint64) uint64 {
	hi, _ := bits.Div64(w%q, 0, q)
	return hi
}

// MulShoup returns x*w mod q, canonical, where wShoup = ShoupPrecomp(w, q)
// and w < q. x may be any 64-bit value: MulShoupLazy's bound leaves one
// conditional subtraction to do.
func MulShoup(x, w, wShoup, q uint64) uint64 {
	r := MulShoupLazy(x, w, wShoup, q)
	if r >= q {
		r -= q
	}
	return r
}

// MulShoupLazy returns a representative of x*w mod q in [0, 2q), where
// wShoup = ShoupPrecomp(w, q) and w < q, for any 64-bit x (Harvey's bound:
// the quotient estimate hi(x·wShoup) undershoots ⌊x·w/q⌋ by at most one,
// and 2q < 2^64 lets the wrapped difference stand for the true one). One
// wide multiply sits on the critical path; it is the NTT butterfly's twiddle
// product.
func MulShoupLazy(x, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(x, wShoup)
	return x*w - hi*q
}

// Pow returns a^e mod q by square-and-multiply.
func Pow(a, e, q uint64) uint64 {
	br := NewBarrett(q)
	return br.Pow(a, e)
}

// Pow returns a^e mod q using the receiver's precomputed constant.
func (br Barrett) Pow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % br.Q
	for e > 0 {
		if e&1 == 1 {
			result = br.Mul(result, base)
		}
		base = br.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns a^-1 mod q for prime q, via Fermat's little theorem.
// It panics if a ≡ 0 mod q, which has no inverse.
func Inv(a, q uint64) uint64 {
	if a%q == 0 {
		panic("mod: zero has no modular inverse")
	}
	return Pow(a, q-2, q)
}
