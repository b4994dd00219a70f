package ring

import (
	"math/bits"

	"bts/internal/mod"
)

// Reference kernels: the slower transforms and element-wise loops the
// production kernels are pinned bit-identical to. None of them is reachable
// from non-test code.
//
// The Barrett kernels are the pre-Montgomery implementations of the ring's
// multiplicative hot paths: the bit-identity tests check that
// IForm(kernel_M(MForm(x))) reproduces kernel_Barrett(x) exactly. They
// operate on true-residue (non-Montgomery) polynomials and use per-multiply
// Barrett reduction throughout.
//
// The radix-2 Montgomery transforms (NTTRadix2/INTTRadix2) are the in-family
// baseline of the fused radix-4 row kernels: one REDC-lazy twiddle multiply
// by a Montgomery-form twiddle per butterfly, values held < 2q, one
// normalization (or N^-1 scaling) pass at the end — a different reduction
// and a different window from the production Shoup kernels.
//
// AutomorphismCoeff is the coefficient-domain automorphism X -> X^g, the
// definition that the NTT-domain permutation (AutomorphismNTT, the
// key-switch's gather tables) is pinned to.

// refTwiddles returns m's bit-reversed twiddle tables as plain residues,
// without the Shoup companions, as the Barrett transforms need them.
func (m *Modulus) refTwiddles() (psiRev, psiInvRev []uint64) {
	n := len(m.psiShoup) / 2
	psiRev = make([]uint64, n)
	psiInvRev = make([]uint64, n)
	for i := range psiRev {
		psiRev[i] = m.psiShoup[2*i]
		psiInvRev[i] = m.psiInvShoup[2*i]
	}
	return psiRev, psiInvRev
}

// montTwiddles returns refTwiddles in Montgomery form, with N^-1 in
// Montgomery form, as the radix-2 REDC transforms need them.
func (m *Modulus) montTwiddles() (psiRev, psiInvRev []uint64, nInvM uint64) {
	psiRev, psiInvRev = m.refTwiddles()
	for i := range psiRev {
		psiRev[i] = m.MRed.MForm(psiRev[i])
		psiInvRev[i] = m.MRed.MForm(psiInvRev[i])
	}
	return psiRev, psiInvRev, m.MRed.MForm(m.NInv)
}

// NTTBarrett is the Barrett-reduction reference forward transform on plain
// (true-residue) rows [0..level] of p, fully reduced at every butterfly.
func (r *Ring) NTTBarrett(p *Poly, level int) {
	r.exec.Run(level+1, func(i int) {
		m := r.Moduli[i]
		psiRev, _ := m.refTwiddles()
		a := p.Coeffs[i]
		n := r.N
		q := m.Q
		br := m.BRed
		t := n
		for mLen := 1; mLen < n; mLen <<= 1 {
			t >>= 1
			for g := 0; g < mLen; g++ {
				w := psiRev[mLen+g]
				base := 2 * g * t
				for j := base; j < base+t; j++ {
					u := a[j]
					v := br.Mul(a[j+t], w)
					a[j] = mod.Add(u, v, q)
					a[j+t] = mod.Sub(u, v, q)
				}
			}
		}
	})
}

// INTTBarrett is the Barrett-reduction reference inverse transform on plain
// rows [0..level] of p.
func (r *Ring) INTTBarrett(p *Poly, level int) {
	r.exec.Run(level+1, func(i int) {
		m := r.Moduli[i]
		_, psiInvRev := m.refTwiddles()
		a := p.Coeffs[i]
		n := r.N
		q := m.Q
		br := m.BRed
		t := 1
		for mLen := n; mLen > 1; mLen >>= 1 {
			j1 := 0
			h := mLen >> 1
			for g := 0; g < h; g++ {
				w := psiInvRev[h+g]
				for j := j1; j < j1+t; j++ {
					u := a[j]
					v := a[j+t]
					a[j] = mod.Add(u, v, q)
					a[j+t] = br.Mul(mod.Sub(u, v, q), w)
				}
				j1 += 2 * t
			}
			t <<= 1
		}
		for j := 0; j < n; j++ {
			a[j] = br.Mul(a[j], m.NInv)
		}
	})
}

// MulCoeffsBarrett is the Barrett reference for MulCoeffs on plain operands.
func (r *Ring) MulCoeffsBarrett(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		br := r.Moduli[i].BRed
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := lo; j < hi; j++ {
			ro[j] = br.Mul(ra[j], rb[j])
		}
	})
}

// MulCoeffsAndAdd sets out += a ⊙ b element-wise on rows [0..level], one
// full-row call per product: Fold's oracle (an op list run one op at a time)
// and the Montgomery counterpart of MulCoeffsAndAddBarrett.
func (r *Ring) MulCoeffsAndAdd(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mulAddRow(a.Coeffs[i][lo:hi:hi], b.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], r.Moduli[i].MRed)
	})
}

// MulCoeffsAndAddBarrett is the Barrett reference for MulCoeffsAndAdd on
// plain operands.
func (r *Ring) MulCoeffsAndAddBarrett(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		br := r.Moduli[i].BRed
		q := r.Moduli[i].Q
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := lo; j < hi; j++ {
			ro[j] = mod.Add(ro[j], br.Mul(ra[j], rb[j]), q)
		}
	})
}

// AutomorphismCoeff applies X -> X^g to rows [0..level] of p in the
// coefficient domain: coefficient i moves to i·g mod 2N, with a sign flip
// when the destination exponent exceeds N (since X^N = -1).
func (r *Ring) AutomorphismCoeff(p *Poly, g uint64, out *Poly, level int) {
	n := uint64(r.N)
	mask := 2*n - 1
	// Sharded over the *source* index: j ↦ j·g mod 2N is a bijection on
	// [0,N) up to sign, so tasks write disjoint destinations.
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		q := r.Moduli[i].Q
		src, dst := p.Coeffs[i], out.Coeffs[i]
		for j := uint64(lo); j < uint64(hi); j++ {
			e := (j * g) & mask
			if e < n {
				dst[e] = src[j]
			} else {
				dst[e-n] = mod.Neg(src[j], q)
			}
		}
	})
}

// NTTRadix2 is the scalar Montgomery radix-2 forward transform on rows
// [0..level] of p, one engine task per row.
func (r *Ring) NTTRadix2(p *Poly, level int) {
	r.exec.Run(level+1, func(i int) {
		psiRev, _, _ := r.Moduli[i].montTwiddles()
		r.nttRowRadix2(p.Coeffs[i], r.Moduli[i], psiRev)
	})
}

// INTTRadix2 is the scalar Montgomery radix-2 inverse counterpart of
// NTTRadix2.
func (r *Ring) INTTRadix2(p *Poly, level int) {
	r.exec.Run(level+1, func(i int) {
		_, psiInvRev, nInvM := r.Moduli[i].montTwiddles()
		r.inttRowRadix2(p.Coeffs[i], r.Moduli[i], psiInvRev, nInvM)
	})
}

// nttRowRadix2 transforms row a under m with psiRev, m's bit-reversed
// twiddles in Montgomery form (montTwiddles).
func (r *Ring) nttRowRadix2(a []uint64, m *Modulus, psiRev []uint64) {
	n := r.N
	q := m.Q
	twoQ := 2 * q
	mr := m.MRed
	t := n
	for mLen := 1; mLen < n; mLen <<= 1 {
		t >>= 1
		for i := 0; i < mLen; i++ {
			w := psiRev[mLen+i]
			base := 2 * i * t
			x := a[base : base+t : base+t]
			y := a[base+t : base+2*t : base+2*t]
			y = y[:len(x)]
			for j := range x {
				u := x[j]
				v := mr.REDCLazy(bits.Mul64(y[j], w))
				s := u + v
				if s >= twoQ {
					s -= twoQ
				}
				d := u + twoQ - v
				if d >= twoQ {
					d -= twoQ
				}
				x[j] = s
				y[j] = d
			}
		}
	}
	for j := range a {
		if a[j] >= q {
			a[j] -= q
		}
	}
}

// inttRowRadix2 inverse-transforms row a under m with psiInvRev and nInvM,
// the Montgomery-form inverse twiddles and N^-1 (montTwiddles).
func (r *Ring) inttRowRadix2(a []uint64, m *Modulus, psiInvRev []uint64, nInvM uint64) {
	n := r.N
	twoQ := 2 * m.Q
	mr := m.MRed
	t := 1
	for mLen := n; mLen > 1; mLen >>= 1 {
		j1 := 0
		h := mLen >> 1
		for i := 0; i < h; i++ {
			w := psiInvRev[h+i]
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t : j1+2*t]
			y = y[:len(x)]
			for j := range x {
				u := x[j]
				v := y[j]
				s := u + v
				if s >= twoQ {
					s -= twoQ
				}
				x[j] = s
				y[j] = mr.REDCLazy(bits.Mul64(u+twoQ-v, w))
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	for j := range a {
		a[j] = mr.Mul(a[j], nInvM)
	}
}
