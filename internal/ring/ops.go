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

// mulRow sets out[j] = a[j]·b[j] (M-form) over the rows' common length: the
// lanes (useLanes) take its 8-word-aligned prefix and mulRowGo the rest.
func mulRow(a, b, out []uint64, mr mod.Montgomery) {
	if useLanes {
		n := min(len(a), len(b), len(out)) &^ 7
		mulRowLanes(a, b, out, mr.Q, mr.QInv)
		a, b, out = a[n:], b[n:], out[n:]
	}
	mulRowGo(a, b, out, mr)
}

// mulRowGo is mulRow's Go row, the fallback and the lanes' oracle; no bounds
// check (CI asserts that by name).
func mulRowGo(a, b, out []uint64, mr mod.Montgomery) {
	for j := 0; j < len(a) && j < len(b) && j < len(out); j++ {
		out[j] = mr.Mul(a[j], b[j])
	}
}

// FoldOp is one term of Fold: Acc = A ⊙ B when First, else Acc += A ⊙ B
// (M-form, reduced), the modular multiply-accumulate the paper's MMAU
// performs.
type FoldOp struct {
	A, B, Acc *Poly
	First     bool
}

// foldTile is the width, in words, of the tiles Fold walks a row block in:
// an op's three tiles take 24 KiB, half the 48 KiB L1D of the reference
// host's cores (a 2-CPU AVX-512 Xeon, 2 MiB L2 each), so a tile an op list
// reads again — a transform's baby accumulator, read once per giant step —
// is still near when the next op reaches it. BenchmarkFold at -cpu 2 and
// the nnlayer-shape transform (127 diagonals, N=2^14, 12 rows) read the
// same within this host's noise at 512, 1024 and 2048 words, every width
// ≈ 1.5× faster per word than the sequential calls; 2048 ran a few percent
// slower on the transform. 1024 is the middle of that flat range.
const foldTile = 1024

// Fold runs every op on rows [0..level], in order, word for word as one
// MulCoeffs (First) or multiply-accumulate call per op would. Instead of
// streaming each op over whole rows it walks every row block tile by tile
// and runs the whole list on a tile before moving to the next, so a
// polynomial that several ops read or accumulate into is fetched once per
// tile rather than once per op.
func (r *Ring) Fold(ops []FoldOp, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mr := r.Moduli[i].MRed
		for t := lo; t < hi; t += foldTile {
			e := min(t+foldTile, hi)
			for _, op := range ops {
				a, b, acc := op.A.Coeffs[i][t:e], op.B.Coeffs[i][t:e], op.Acc.Coeffs[i][t:e]
				if op.First {
					mulRow(a, b, acc, mr)
				} else {
					mulAddRow(a, b, acc, mr)
				}
			}
		}
	})
}

// mulAddRow sets out[j] += a[j]·b[j] (M-form) over the rows' common length,
// on the lanes and then mulAddRowGo as mulRow does.
func mulAddRow(a, b, out []uint64, mr mod.Montgomery) {
	if useLanes {
		n := min(len(a), len(b), len(out)) &^ 7
		mulAddRowLanes(a, b, out, mr.Q, mr.QInv)
		a, b, out = a[n:], b[n:], out[n:]
	}
	mulAddRowGo(a, b, out, mr)
}

// mulAddRowGo is mulAddRow's Go row; no bounds check (CI asserts that by
// name).
func mulAddRowGo(a, b, out []uint64, mr mod.Montgomery) {
	q := mr.Q
	for j := 0; j < len(a) && j < len(b) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mr.Mul(a[j], b[j]), q)
	}
}

// gatherMulRow sets out[j] = a[table[j]]·b[j] (M-form) over the common length
// of table, b and out, on the lanes and then gatherMulRowGo as mulRow does.
// The lanes' gather checks no index: every table[j] must index a, which
// MulKeyPair checks before any row runs.
func gatherMulRow(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	if useLanes {
		n := min(len(table), len(b), len(out)) &^ 7
		gatherMulRowLanes(a, table, b, out, mr.Q, mr.QInv)
		table, b, out = table[n:], b[n:], out[n:]
	}
	gatherMulRowGo(a, table, b, out, mr)
}

// gatherMulRowGo is gatherMulRow's Go row; the gather a[table[j]] keeps its
// one data-dependent bounds check.
func gatherMulRowGo(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	for j := 0; j < len(table) && j < len(b) && j < len(out); j++ {
		out[j] = mr.Mul(a[table[j]], b[j])
	}
}

// gatherMulAddRow sets out[j] += a[table[j]]·b[j] (M-form) over the common
// length of table, b and out, with gatherMulRow's tiers and precondition.
func gatherMulAddRow(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	if useLanes {
		n := min(len(table), len(b), len(out)) &^ 7
		gatherMulAddRowLanes(a, table, b, out, mr.Q, mr.QInv)
		table, b, out = table[n:], b[n:], out[n:]
	}
	gatherMulAddRowGo(a, table, b, out, mr)
}

// gatherMulAddRowGo is gatherMulAddRow's Go row; the gather keeps its bounds
// check.
func gatherMulAddRowGo(a []uint64, table []int, b, out []uint64, mr mod.Montgomery) {
	q := mr.Q
	for j := 0; j < len(table) && j < len(b) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mr.Mul(a[table[j]], b[j]), q)
	}
}

// MulScalarInt64 multiplies rows [0..level] by a signed scalar given as
// int64 (used to fold plaintext constants into polynomials). Multiplying by
// a plain constant is form-preserving (a = xR gives a·s = x·s·R), so the
// kernel uses the cheaper Shoup discipline rather than lifting the scalar
// into Montgomery form.
func (r *Ring) MulScalarInt64(a *Poly, s int64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		m := r.Moduli[i]
		w := m.reduceInt64(s)
		mulShoupRow(a.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], w, mod.ShoupPrecomp(w, m.Q), m.Q)
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

// SubMulLimbScalars sets out = (a − b) * w[i] on each row i of [0..level],
// for per-prime plain constants w (canonical residues) with their Shoup
// companions ws: the last pass of the division by a product of primes
// (ckks' divRound), which subtracts the converted remainder and scales by
// the divisor's inverse.
func (r *Ring) SubMulLimbScalars(a, b *Poly, w, ws []uint64, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		subMulShoupRow(a.Coeffs[i][lo:hi:hi], b.Coeffs[i][lo:hi:hi], out.Coeffs[i][lo:hi:hi], w[i], ws[i], r.Moduli[i].Q)
	})
}

// mulShoupRow sets out[j] = a[j]·w mod q over the rows' common length, w with
// its Shoup companion ws, on the lanes and then mulShoupRowGo as mulRow does.
func mulShoupRow(a, out []uint64, w, ws, q uint64) {
	if useLanes {
		n := min(len(a), len(out)) &^ 7
		mulShoupRowLanes(a, out, w, ws, q)
		a, out = a[n:], out[n:]
	}
	mulShoupRowGo(a, out, w, ws, q)
}

// mulShoupRowGo is mulShoupRow's Go row; no bounds check (CI asserts that by
// name).
func mulShoupRowGo(a, out []uint64, w, ws, q uint64) {
	for j := 0; j < len(a) && j < len(out); j++ {
		out[j] = mod.MulShoup(a[j], w, ws, q)
	}
}

// mulShoupAddRow sets out[j] += a[j]·w mod q over the rows' common length, w
// with its Shoup companion ws, on the lanes and then mulShoupAddRowGo as
// mulRow does.
func mulShoupAddRow(a, out []uint64, w, ws, q uint64) {
	if useLanes {
		n := min(len(a), len(out)) &^ 7
		mulShoupAddRowLanes(a, out, w, ws, q)
		a, out = a[n:], out[n:]
	}
	mulShoupAddRowGo(a, out, w, ws, q)
}

// mulShoupAddRowGo is mulShoupAddRow's Go row: a load, a Shoup multiply, an
// add and a store per word, no bounds check (CI asserts that by name).
func mulShoupAddRowGo(a, out []uint64, w, ws, q uint64) {
	for j := 0; j < len(a) && j < len(out); j++ {
		out[j] = mod.Add(out[j], mod.MulShoup(a[j], w, ws, q), q)
	}
}

// subMulShoupRow sets out[j] = (a[j] − b[j])·w mod q over the rows' common
// length, w with its Shoup companion ws, on the lanes and then
// subMulShoupRowGo as mulRow does.
func subMulShoupRow(a, b, out []uint64, w, ws, q uint64) {
	if useLanes {
		n := min(len(a), len(b), len(out)) &^ 7
		subMulShoupRowLanes(a, b, out, w, ws, q)
		a, b, out = a[n:], b[n:], out[n:]
	}
	subMulShoupRowGo(a, b, out, w, ws, q)
}

// subMulShoupRowGo is subMulShoupRow's Go row; no bounds check (CI asserts
// that by name).
func subMulShoupRowGo(a, b, out []uint64, w, ws, q uint64) {
	for j := 0; j < len(a) && j < len(b) && j < len(out); j++ {
		out[j] = mod.MulShoup(mod.Sub(a[j], b[j], q), w, ws, q)
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

// AutoIndexNTT returns (and caches) the permutation table for applying the
// automorphism X -> X^g directly in the NTT domain. Row index i of the output
// takes its value from row index table[i] of the input: in evaluation order,
// σ_g(A) evaluated at ψ^e equals A evaluated at ψ^(e·g mod 2N), and no signs
// change — which is why BTS can realize automorphism as a pure NoC
// permutation (Section 5.5). The table depends only on the ring degree and
// g, so rings of equal N produce identical tables; the key-switch feeds the
// q-ring's to MulKeyPair on both of its bases, fusing the permutation into
// its multiply-accumulate instead of materializing the permuted polynomial.
// The returned slice is shared and must be treated as read-only. The cache
// is guarded by a read-write lock so several ciphertexts may be rotated
// concurrently (the serving runtime keeps many in flight on one ring);
// workers inside the limb fan-out only ever read the fully-built table.
func (r *Ring) AutoIndexNTT(g uint64) []int {
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
	table := r.AutoIndexNTT(g)
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		src, dst := p.Coeffs[i], out.Coeffs[i]
		for j := lo; j < hi; j++ {
			dst[j] = src[table[j]]
		}
	})
}

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
