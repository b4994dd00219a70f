package ring

import (
	"math"
	"math/rand"

	"bts/internal/mod"
)

// Every element-wise kernel below operates on independent (limb,
// coefficient) pairs, so each dispatches through the ring's two-dimensional
// execution engine (RunBlocks, see exec.go): one task per residue row while
// the active limbs fill the pool, with each row further split into
// contiguous coefficient blocks when they don't — the software analogue of
// the paper's element-wise functions running across the full PE grid at any
// level.

// Add sets out = a + b element-wise on rows [0..level].
func (r *Ring) Add(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		q := r.Moduli[i].Q
		ra := a.Coeffs[i][lo:hi:hi]
		rb := b.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		rb, ro = rb[:len(ra)], ro[:len(ra)]
		for j := range ra {
			ro[j] = mod.Add(ra[j], rb[j], q)
		}
	})
}

// Sub sets out = a - b element-wise on rows [0..level].
func (r *Ring) Sub(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		q := r.Moduli[i].Q
		ra := a.Coeffs[i][lo:hi:hi]
		rb := b.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		rb, ro = rb[:len(ra)], ro[:len(ra)]
		for j := range ra {
			ro[j] = mod.Sub(ra[j], rb[j], q)
		}
	})
}

// Neg sets out = -a element-wise on rows [0..level].
func (r *Ring) Neg(a, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		q := r.Moduli[i].Q
		ra := a.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		ro = ro[:len(ra)]
		for j := range ra {
			ro[j] = mod.Neg(ra[j], q)
		}
	})
}

// MulCoeffs sets out = a ⊙ b element-wise on rows [0..level]. In the NTT
// domain this is polynomial multiplication. Both operands are in Montgomery
// form, so the fused REDC multiply lands the product back in Montgomery form
// — one 3-multiply reduction where the Barrett path paid roughly twice that.
func (r *Ring) MulCoeffs(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mulRow(a.Coeffs[i][lo:hi:hi], b.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], r.Moduli[i].MRed)
	})
}

// mulRow sets out[j] = a[j]·b[j] (M-form) over the rows' common length; no
// bounds check (CI asserts that by name).
func mulRow(a, b, out []uint64, mr mod.Montgomery) {
	for j := 0; j < len(a) && j < len(b) && j < len(out); j++ {
		out[j] = mr.Mul(a[j], b[j])
	}
}

// MulCoeffsAndAdd sets out += a ⊙ b element-wise on rows [0..level]; this is
// the modular multiply-accumulate the paper's MMAU performs.
func (r *Ring) MulCoeffsAndAdd(a, b, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mulAddRow(a.Coeffs[i][lo:hi:hi], b.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], r.Moduli[i].MRed)
	})
}

// mulAddRow sets out[j] += a[j]·b[j] (M-form) over the rows' common length;
// no bounds check (CI asserts that by name).
func mulAddRow(a, b, out []uint64, mr mod.Montgomery) {
	q := mr.Q
	for j := 0; j < len(a) && j < len(b) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mr.Mul(a[j], b[j]), q)
	}
}

// gatherMulRow sets out[j] = a[table[j]]·b[j] (M-form) over the common length
// of table, b and out; the gather a[table[j]] keeps its one data-dependent
// bounds check.
func gatherMulRow(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	for j := 0; j < len(table) && j < len(b) && j < len(out); j++ {
		out[j] = mr.Mul(a[table[j]], b[j])
	}
}

// gatherMulAddRow sets out[j] += a[table[j]]·b[j] (M-form) over the common
// length of table, b and out; the gather keeps its bounds check.
func gatherMulAddRow(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	q := mr.Q
	for j := 0; j < len(table) && j < len(b) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mr.Mul(a[table[j]], b[j]), q)
	}
}

// MulScalar sets out = a * s element-wise on rows [0..level] for a uint64
// scalar s (reduced per prime). Multiplying by a plain constant is
// form-preserving (a = xR gives a·s = x·s·R), so the kernel uses the cheaper
// Shoup discipline rather than lifting the scalar into Montgomery form —
// both yield the canonical residue of a·s, bit-identically.
func (r *Ring) MulScalar(a *Poly, s uint64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		m := r.Moduli[i]
		q := m.Q
		w := m.BRed.Reduce(s)
		ws := mod.ShoupPrecomp(w, q)
		ra := a.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		ro = ro[:len(ra)]
		for j := range ra {
			ro[j] = mod.MulShoup(ra[j], w, ws, q)
		}
	})
}

// MulScalarInt64 multiplies rows [0..level] by a signed scalar given as
// int64 (used to fold plaintext constants into polynomials). Like MulScalar
// it is form-preserving and runs on the Shoup discipline.
func (r *Ring) MulScalarInt64(a *Poly, s int64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		m := r.Moduli[i]
		q := m.Q
		w := m.reduceInt64(s)
		ws := mod.ShoupPrecomp(w, q)
		ra := a.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		ro = ro[:len(ra)]
		for j := range ra {
			ro[j] = mod.MulShoup(ra[j], w, ws, q)
		}
	})
}

// MulScalarInt64AndAdd sets out += a * s on rows [0..level]: MulScalarInt64
// and Add in one pass, with no temporary for the product. It is the term
// c_k·T_k of a linear combination of ciphertexts (the Chebyshev leaves).
func (r *Ring) MulScalarInt64AndAdd(a *Poly, s int64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		m := r.Moduli[i]
		q := m.Q
		w := m.reduceInt64(s)
		mulShoupAddRow(a.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], w, mod.ShoupPrecomp(w, q), q)
	})
}

// MulLimbScalarsAndAdd sets out += a * w[i] on each row i of [0..level], for
// per-prime plain constants w (canonical residues) with their Shoup
// companions ws — a big integer such as P given by its residues.
func (r *Ring) MulLimbScalarsAndAdd(a *Poly, w, ws []uint64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mulShoupAddRow(a.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], w[i], ws[i], r.Moduli[i].Q)
	})
}

// MulLimbScalars sets out = a * w[i] on each row i of [lo..hi]: the
// non-accumulating MulLimbScalarsAndAdd, for a copy that is scaled on the
// way. w and ws are indexed by the row's prime, like the rows themselves.
func (r *Ring) MulLimbScalars(a *Poly, w, ws []uint64, out *Poly, lo, hi int) {
	r.exec.RunBlocks(hi-lo+1, r.N, func(k, c0, c1 int) {
		i := lo + k
		mulShoupRow(a.Coeffs[i][c0:c1:c1], out.Coeffs[i][c0:c1:c1], w[i], ws[i], r.Moduli[i].Q)
	})
}

// mulShoupRow sets out[j] = a[j]·w mod q over the rows' common length, w with
// its Shoup companion ws; no bounds check (CI asserts that by name).
func mulShoupRow(a, out []uint64, w, ws, q uint64) {
	for j := 0; j < len(a) && j < len(out); j++ {
		out[j] = mod.MulShoup(a[j], w, ws, q)
	}
}

// mulShoupAddRow sets out[j] += a[j]·w mod q over the rows' common length, w
// with its Shoup companion ws: a load, a Shoup multiply, an add and a store
// per word, no bounds check (CI asserts that by name).
func mulShoupAddRow(a, out []uint64, w, ws, q uint64) {
	for j := 0; j < len(a) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mod.MulShoup(a[j], w, ws, q), q)
	}
}

// reduceInt64 returns the canonical residue of the signed scalar s.
func (m *Modulus) reduceInt64(s int64) uint64 {
	if s >= 0 {
		return m.BRed.Reduce(uint64(s))
	}
	return mod.Neg(m.BRed.Reduce(uint64(-s)), m.Q)
}

// GaloisElement returns 5^r mod 2N, the automorphism exponent implementing a
// rotation by r slots (Eq. 5 of the paper). Negative r rotates the other way.
// The power is computed by square-and-multiply (2N is a power of two, so the
// reduction is a mask), keeping large rotations O(log r) instead of O(r).
func (r *Ring) GaloisElement(rot int) uint64 {
	mask := uint64(2*r.N) - 1
	rot %= r.N / 2
	if rot < 0 {
		rot += r.N / 2
	}
	g := uint64(1)
	base := uint64(5)
	for e := uint64(rot); e > 0; e >>= 1 {
		if e&1 == 1 {
			g = (g * base) & mask
		}
		base = (base * base) & mask
	}
	return g
}

// GaloisConjugate is the automorphism exponent 2N-1 implementing complex
// conjugation of the slots.
func (r *Ring) GaloisConjugate() uint64 { return uint64(2*r.N - 1) }

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

// autoIndexNTT returns (and caches) the permutation table for applying the
// automorphism X -> X^g directly in the NTT domain. Row index i of the output
// takes its value from row index table[i] of the input: in evaluation order,
// σ_g(A) evaluated at ψ^e equals A evaluated at ψ^(e·g mod 2N), and no signs
// change — which is why BTS can realize automorphism as a pure NoC
// permutation (Section 5.5). The cache is guarded by a read-write lock so
// several ciphertexts may be rotated concurrently (the serving runtime keeps
// many in flight on one ring); workers inside the limb fan-out only ever read
// the fully-built table.
func (r *Ring) autoIndexNTT(g uint64) []int {
	r.autoMu.RLock()
	t, ok := r.autoCache[g]
	r.autoMu.RUnlock()
	if ok {
		return t
	}
	n := r.N
	mask := uint64(2*n - 1)
	table := make([]int, n)
	for i := 0; i < n; i++ {
		e := uint64(r.evalOrderExponent(i))
		eg := (e * g) & mask      // odd, since e odd and g odd
		j := int((eg - 1) / 2)    // evaluation slot with exponent eg
		table[i] = r.brv[j&(n-1)] // back to storage order
	}
	r.autoMu.Lock()
	r.autoCache[g] = table
	r.autoMu.Unlock()
	return table
}

// AutomorphismNTT applies X -> X^g to rows [0..level] of p in the NTT domain.
func (r *Ring) AutomorphismNTT(p *Poly, g uint64, out *Poly, level int) {
	table := r.autoIndexNTT(g)
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		src, dst := p.Coeffs[i], out.Coeffs[i]
		for j := lo; j < hi; j++ {
			dst[j] = src[table[j]]
		}
	})
}

// AutoIndexNTT returns the cached NTT-domain permutation table of the
// automorphism X -> X^g: output slot j takes its value from input slot
// table[j], with no sign changes (see autoIndexNTT). The returned slice is
// shared and must be treated as read-only; it depends only on the ring degree
// and g, so rings of equal N produce identical tables. The hoisted
// key-switch feeds it to MulKeyPair to fuse the permutation into its
// multiply-accumulate instead of materializing the permuted polynomial.
func (r *Ring) AutoIndexNTT(g uint64) []int { return r.autoIndexNTT(g) }

// --- Samplers ---------------------------------------------------------------
//
// The samplers stay serial on purpose: they consume a deterministic PRNG
// stream whose draw order is part of the test vectors, so their output must
// not depend on the worker count.

// SampleUniform fills rows [0..level] with independent uniform residues.
func (r *Ring) SampleUniform(rng *rand.Rand, p *Poly, level int) {
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		row := p.Coeffs[i]
		for j := range row {
			row[j] = uniformUint64(rng, q)
		}
	}
}

// uniformUint64 draws a uniform value in [0,q) with rejection sampling.
func uniformUint64(rng *rand.Rand, q uint64) uint64 {
	max := ^uint64(0) - (^uint64(0) % q)
	for {
		v := rng.Uint64()
		if v < max {
			return v % q
		}
	}
}

// SampleTernarySparse fills coeffs with a ternary secret of exact Hamming
// weight h (±1 entries, the rest zero), the sparse-secret distribution used
// for bootstrappable CKKS instances, and writes it into rows [0..level].
func (r *Ring) SampleTernarySparse(rng *rand.Rand, p *Poly, h, level int) {
	coeffs := make([]int64, r.N)
	for placed := 0; placed < h; {
		idx := rng.Intn(r.N)
		if coeffs[idx] != 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			coeffs[idx] = 1
		} else {
			coeffs[idx] = -1
		}
		placed++
	}
	r.SetInt64Coeffs(p, coeffs, level)
}

// SampleGaussian fills rows [0..level] with a discrete Gaussian of standard
// deviation sigma truncated at 6σ (the LWE error distribution, Section 2.2).
func (r *Ring) SampleGaussian(rng *rand.Rand, p *Poly, sigma float64, level int) {
	bound := 6 * sigma
	coeffs := make([]int64, r.N)
	for j := range coeffs {
		for {
			v := rng.NormFloat64() * sigma
			if math.Abs(v) <= bound {
				coeffs[j] = int64(math.Round(v))
				break
			}
		}
	}
	r.SetInt64Coeffs(p, coeffs, level)
}

// MulByMonomialNTT multiplies rows [0..level] of p (NTT domain) by the
// monomial X^k, k taken mod 2N. Because NTT row j holds the evaluation at
// ψ^e(j), this is an exact element-wise multiplication by ψ^(e(j)·k) — no
// level or scale cost. CKKS uses X^(N/2), which acts as multiplication by i
// on every message slot (all slot exponents are ≡ 1 mod 4).
func (r *Ring) MulByMonomialNTT(p *Poly, k int, out *Poly, level int) {
	twoN := 2 * r.N
	k %= twoN
	if k < 0 {
		k += twoN
	}
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		m := r.Moduli[i]
		src, dst := p.Coeffs[i], out.Coeffs[i]
		for j := lo; j < hi; j++ {
			e := (r.evalOrderExponent(j) * k) % twoN
			neg := e >= r.N
			if neg {
				e -= r.N // ψ^N = -1
			}
			// The plain twiddle ψ^e multiplies the operand in its own form.
			idx := 2 * r.brv[e]
			v := mod.MulShoup(src[j], m.psiShoup[idx], m.psiShoup[idx+1], m.Q)
			if neg {
				v = mod.Neg(v, m.Q)
			}
			dst[j] = v
		}
	})
}
