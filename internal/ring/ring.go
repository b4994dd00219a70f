// Package ring implements arithmetic in cyclotomic polynomial rings
// R_Q = Z_Q[X]/(X^N+1) represented in the residue number system (RNS), the
// polynomial substrate of Full-RNS CKKS (Section 2.2 of the BTS paper).
//
// A polynomial is stored as an N×(level+1) matrix of 64-bit residues, one row
// per prime modulus, exactly the layout the paper's Figure 4 assumes. The
// package provides the three access-pattern families the paper analyzes:
// residue-polynomial-wise functions (NTT, iNTT, automorphism), coefficient-wise
// functions (base conversion), and element-wise functions (modular add/mult).
//
// # Montgomery-form invariant
//
// Every residue this package stores in a Poly is kept in Montgomery form
// (M-form): the word held for a coefficient with true residue x is x·R mod q,
// R = 2^64 (mod.Montgomery). All compute kernels preserve the invariant —
// operand×operand multiplies (MulCoeffs, the Acc128 MAC path) REDC a product
// of two M-form words straight back to M-form, constant multiplies (twiddle
// factors, scalars, rescale and base-conversion tables) either carry M-form
// tables or exploit that a plain-constant product (aR)·w ≡ (aw)R preserves
// the operand's form, and Add/Sub/Neg/permutations are form-agnostic.
// Conversions happen only at the boundaries: SetInt64Coeffs/SetBigCoeffs
// convert in (MForm), PolyToBigCentered converts out (IForm), and the few
// kernels that need a true integer internally — base-conversion stage 1,
// whose centered digits cross moduli, and the rescale rounding lift — fold a
// single REDC into the pass that needs it. Uniformly random rows
// (SampleUniform) need no conversion at all: x ↦ x·R is a bijection on Z_q.
// Serialization converts at the wire boundary, so encoded bytes carry true
// canonical residues.
//
// # Kernel hierarchy
//
// The negacyclic transforms come in three tiers, each pinned bit-identical
// to the next by the test suite:
//
//   - Barrett reference (reference.go): plain-residue radix-2 loops with no
//     lazy reduction — the slow, obviously-correct oracle every production
//     kernel is compared against.
//   - Scalar Montgomery radix-2 (NTTRadix2/INTTRadix2 and the
//     nttStageRange/inttStageRange per-stage bodies): one REDC-lazy twiddle
//     multiply per butterfly, values held < 2q, one normalization pass at
//     the end. The per-stage form is what the sharded schedule dispatches.
//   - Fused radix-4 (nttRowRadix4/inttRowRadix4): two consecutive radix-2
//     layers merged into one pass over the row, four coefficients per
//     butterfly, twiddle triples interleaved per group
//     (mod.FusedNTTTwiddles), intermediates on a widened [0, 4q) lazy
//     window. This is the production row kernel.
//
// All kernels dispatch through a two-dimensional execution engine (Engine,
// see exec.go) that parallelizes across RNS limbs and, when the active limbs
// alone cannot occupy every worker, across contiguous coefficient blocks
// within each residue row — so speedup does not saturate at the limb count
// (level+1): low-level ciphertexts keep the whole pool busy, exactly as the
// paper's PE grid distributes both limbs and coefficients. Full rows take
// the fused radix-4 kernel; sharded rows run the per-stage radix-2 schedule
// with barriers between stages. Base conversion, the one coefficient-wise
// family, is instead cut into fixed coefficient tiles that each carry every
// limb (BasisExtender). Outputs are bit-identical to serial execution at
// every (worker, block) configuration.
package ring

import (
	"fmt"
	"math/big"
	"sync"

	"bts/internal/mod"
	"bts/internal/telemetry"
)

// Modulus bundles one RNS prime with every precomputed table needed for the
// negacyclic NTT in Montgomery form, plus the Barrett constant kept for the
// 128-bit accumulator reductions and true-residue scalar folds.
type Modulus struct {
	Q    uint64
	BRed mod.Barrett    // arbitrary 128-bit reduction (Acc128, BConv stage 2, scalar folds)
	MRed mod.Montgomery // fused REDC multiply, the hot-path reduction

	Psi    uint64 // primitive 2N-th root of unity (true residue)
	PsiInv uint64 // ψ^-1 mod q (true residue)
	NInv   uint64 // N^-1 mod q (true residue)

	// Twiddle tables in bit-reversed order (Longa–Naehrig layout), stored in
	// Montgomery form: psiRev[i] = [ψ^brv(i)]·R, psiInvRev[i] = [ψ^-brv(i)]·R.
	// A REDC butterfly multiply by an M-form twiddle maps x ↦ x·ψ^e mod q in
	// whichever form x is in, so the tables serve M-form operands without the
	// Shoup companion word per twiddle the Barrett-era layout carried.
	psiRev    []uint64
	psiInvRev []uint64
	nInvM     uint64 // N^-1 in Montgomery form, the iNTT scaling constant

	// Fused radix-4 twiddle triples (mod.FusedNTTTwiddles layout): entry k
	// interleaves the one first-layer and two second-layer twiddles of
	// merged butterfly group k, so the radix-4 row kernels stream one table
	// instead of gathering from two halves of psiRev/psiInvRev per group.
	psiFused    []uint64
	psiInvFused []uint64

	// refOnce lazily builds the plain-form Barrett reference twiddles used
	// only by the reference kernels (bit-identity tests, bench baselines).
	refOnce sync.Once
	ref     *refTables
}

// Ring is R_Q for a fixed degree N and a chain of prime moduli. CKKS uses two
// rings: one over the q-chain and one over the special p-chain (Section 2.5).
type Ring struct {
	N    int
	LogN int
	// Moduli is the full prime chain; operations accept a level parameter
	// selecting the active prefix Moduli[0..level].
	Moduli []*Modulus

	brv []int // bit-reversal permutation of [0,N)

	// Rescale tables, indexed [level][i] for i < level: the per-limb
	// constants of DivRoundByLastModulusNTT, precomputed once so the
	// sharded passes don't recompute modular inverses per coefficient
	// block. rescaleQInv[L][i] = (q_L mod q_i)^-1 mod q_i (with Shoup
	// companions) and rescaleHalf[L][i] = [q_L/2] mod q_i.
	rescaleQInv      [][]uint64
	rescaleQInvShoup [][]uint64
	rescaleHalf      [][]uint64

	autoCache map[uint64][]int // NTT-domain automorphism index tables
	autoMu    sync.RWMutex     // guards autoCache for concurrent evaluation

	// exec fans limb-indexed kernels out across worker goroutines; it
	// defaults to the shared DefaultEngine (see exec.go) and can be swapped
	// with SetEngine/SetWorkers. polyPool and rowPool back the
	// GetPoly/PutPoly zero-allocation scratch discipline; accPool holds the
	// 128-bit lazy MAC accumulators (see acc.go).
	exec     *Engine
	ownsExec bool // exec was created by SetWorkers and is closed on replace
	polyPool sync.Pool
	rowPool  sync.Pool
	accPool  sync.Pool

	// poolStats, when non-nil, counts scratch-pool traffic (hit/miss); every
	// hook is nil-guarded, see SetPoolStats.
	poolStats *telemetry.PoolStats
}

// NewRing constructs a ring of degree N=2^logN over the given prime chain.
// Every prime must satisfy q ≡ 1 (mod 2N) so that the negacyclic NTT exists.
func NewRing(logN int, primes []uint64) (*Ring, error) {
	if logN < 2 || logN > 17 {
		return nil, fmt.Errorf("ring: logN=%d outside supported range [2,17]", logN)
	}
	if len(primes) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	n := 1 << logN
	r := &Ring{
		N:         n,
		LogN:      logN,
		Moduli:    make([]*Modulus, len(primes)),
		brv:       bitReversalPermutation(logN),
		autoCache: make(map[uint64][]int),
		exec:      DefaultEngine(),
	}
	seen := make(map[uint64]bool, len(primes))
	for i, q := range primes {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		m, err := newModulus(q, logN, r.brv)
		if err != nil {
			return nil, err
		}
		r.Moduli[i] = m
	}
	r.rescaleQInv = make([][]uint64, len(primes))
	r.rescaleQInvShoup = make([][]uint64, len(primes))
	r.rescaleHalf = make([][]uint64, len(primes))
	for lvl := 1; lvl < len(primes); lvl++ {
		qL := r.Moduli[lvl].Q
		r.rescaleQInv[lvl] = make([]uint64, lvl)
		r.rescaleQInvShoup[lvl] = make([]uint64, lvl)
		r.rescaleHalf[lvl] = make([]uint64, lvl)
		for i := 0; i < lvl; i++ {
			qi := r.Moduli[i].Q
			inv := mod.Inv(qL%qi, qi)
			r.rescaleQInv[lvl][i] = inv
			r.rescaleQInvShoup[lvl][i] = mod.ShoupPrecomp(inv, qi)
			r.rescaleHalf[lvl][i] = r.Moduli[i].BRed.Reduce(qL >> 1)
		}
	}
	return r, nil
}

func newModulus(q uint64, logN int, brv []int) (*Modulus, error) {
	if !mod.IsPrime(q) {
		return nil, fmt.Errorf("ring: modulus %d is not prime", q)
	}
	psi, err := mod.PrimitiveRootOfUnity(q, logN)
	if err != nil {
		return nil, err
	}
	n := 1 << logN
	m := &Modulus{
		Q:      q,
		BRed:   mod.NewBarrett(q),
		MRed:   mod.NewMontgomery(q),
		Psi:    psi,
		PsiInv: mod.Inv(psi, q),
		NInv:   mod.Inv(uint64(n), q),
	}
	m.nInvM = m.MRed.MForm(m.NInv)
	m.psiRev = make([]uint64, n)
	m.psiInvRev = make([]uint64, n)
	powPsi := uint64(1)
	powPsiInv := uint64(1)
	for i := 0; i < n; i++ {
		j := brv[i]
		m.psiRev[j] = m.MRed.MForm(powPsi)
		m.psiInvRev[j] = m.MRed.MForm(powPsiInv)
		powPsi = m.BRed.Mul(powPsi, m.Psi)
		powPsiInv = m.BRed.Mul(powPsiInv, m.PsiInv)
	}
	m.psiFused = mod.FusedNTTTwiddles(m.psiRev)
	m.psiInvFused = mod.FusedINTTTwiddles(m.psiInvRev)
	return m, nil
}

func bitReversalPermutation(logN int) []int {
	n := 1 << logN
	brv := make([]int, n)
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logN; b++ {
			r |= ((i >> b) & 1) << (logN - 1 - b)
		}
		brv[i] = r
	}
	return brv
}

// MaxLevel is the highest level (index of the last prime) this ring supports.
func (r *Ring) MaxLevel() int { return len(r.Moduli) - 1 }

// ModulusProduct returns Π_{i=0..level} q_i as a big integer.
func (r *Ring) ModulusProduct(level int) *big.Int {
	p := big.NewInt(1)
	for i := 0; i <= level; i++ {
		p.Mul(p, new(big.Int).SetUint64(r.Moduli[i].Q))
	}
	return p
}

// Poly is an RNS polynomial: Coeffs[i][j] is the j-th coefficient's residue
// modulo Moduli[i]. Rows beyond the active level are scratch space.
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial with nPrimes residue rows backed by a
// single contiguous buffer (the layout the paper's PE grid distributes).
func (r *Ring) NewPoly(nPrimes int) *Poly {
	backing := make([]uint64, nPrimes*r.N)
	p := &Poly{Coeffs: make([][]uint64, nPrimes)}
	for i := range p.Coeffs {
		p.Coeffs[i] = backing[i*r.N : (i+1)*r.N : (i+1)*r.N]
	}
	return p
}

// NewPolyLevel allocates a zero polynomial usable up to the given level.
func (r *Ring) NewPolyLevel(level int) *Poly { return r.NewPoly(level + 1) }

// Levels returns the number of residue rows minus one.
func (p *Poly) Levels() int { return len(p.Coeffs) - 1 }

// CopyLevel copies src rows [0..level] into dst.
func (r *Ring) CopyLevel(dst, src *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		copy(dst.Coeffs[i][lo:hi], src.Coeffs[i][lo:hi])
	})
}

// CopyNew returns a deep copy of p truncated/extended to level+1 rows.
func (r *Ring) CopyNew(p *Poly, level int) *Poly {
	out := r.NewPolyLevel(level)
	r.CopyLevel(out, p, level)
	return out
}

// Zero clears rows [0..level].
func (r *Ring) Zero(p *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		row := p.Coeffs[i][lo:hi:hi]
		for j := range row {
			row[j] = 0
		}
	})
}

// Equal reports whether a and b agree on rows [0..level].
func (r *Ring) Equal(a, b *Poly, level int) bool {
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// PolyToBigCentered reconstructs the coefficients of p (rows 0..level, coefficient
// domain) as centered big integers in (-Q/2, Q/2] via the CRT (Eq. 1).
func (r *Ring) PolyToBigCentered(p *Poly, level int) []*big.Int {
	q := r.ModulusProduct(level)
	half := new(big.Int).Rsh(q, 1)
	// CRT basis: e_i = (Q/q_i) * [(Q/q_i)^-1 mod q_i]
	basis := make([]*big.Int, level+1)
	for i := 0; i <= level; i++ {
		qi := new(big.Int).SetUint64(r.Moduli[i].Q)
		qhat := new(big.Int).Quo(q, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qhat, qi), qi)
		basis[i] = new(big.Int).Mul(qhat, inv)
	}
	out := make([]*big.Int, r.N)
	tmp := new(big.Int)
	for j := 0; j < r.N; j++ {
		acc := new(big.Int)
		for i := 0; i <= level; i++ {
			tmp.SetUint64(r.Moduli[i].MRed.IForm(p.Coeffs[i][j]))
			tmp.Mul(tmp, basis[i])
			acc.Add(acc, tmp)
		}
		acc.Mod(acc, q)
		if acc.Cmp(half) > 0 {
			acc.Sub(acc, q)
		}
		out[j] = acc
	}
	return out
}

// SetBigCoeffs writes centered (or any) big-integer coefficients into p's
// rows [0..level], reducing each modulo the corresponding prime and
// converting into Montgomery form (the in-boundary of the M-form invariant).
func (r *Ring) SetBigCoeffs(p *Poly, coeffs []*big.Int, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		tmp := new(big.Int)
		mr := r.Moduli[i].MRed
		qi := new(big.Int).SetUint64(r.Moduli[i].Q)
		for j := lo; j < hi; j++ {
			tmp.Mod(coeffs[j], qi)
			p.Coeffs[i][j] = mr.MForm(tmp.Uint64())
		}
	})
}

// SetInt64Coeffs writes signed 64-bit coefficients into rows [0..level] in
// Montgomery form.
func (r *Ring) SetInt64Coeffs(p *Poly, coeffs []int64, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		q := r.Moduli[i].Q
		mr := r.Moduli[i].MRed
		row := p.Coeffs[i]
		for j := lo; j < hi; j++ {
			c := coeffs[j]
			var v uint64
			if c >= 0 {
				v = uint64(c) % q
			} else {
				v = q - (uint64(-c) % q)
				if v == q {
					v = 0
				}
			}
			row[j] = mr.MForm(v)
		}
	})
}

// MForm converts rows [0..level] of a true-residue polynomial into Montgomery
// form. Compute kernels assume their operands are already in M-form; this is
// for the wire/test boundaries, where true canonical residues enter the ring.
func (r *Ring) MForm(a, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mr := r.Moduli[i].MRed
		ra := a.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		ro = ro[:len(ra)]
		for j := range ra {
			ro[j] = mr.MForm(ra[j])
		}
	})
}

// IForm converts rows [0..level] of a Montgomery-form polynomial back to true
// canonical residues (the out-boundary of the M-form invariant).
func (r *Ring) IForm(a, out *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mr := r.Moduli[i].MRed
		ra := a.Coeffs[i][lo:hi:hi]
		ro := out.Coeffs[i][lo:hi:hi]
		ro = ro[:len(ra)]
		for j := range ra {
			ro[j] = mr.IForm(ra[j])
		}
	})
}
