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
// of two M-form words straight back to M-form, base conversion's REDC
// carries its constant tables in whichever form its output needs, the other
// constant multiplies (twiddle factors, scalars) exploit that a
// plain-constant product (aR)·w ≡ (aw)R preserves the operand's form and run
// on the Shoup discipline, and Add/Sub/Neg/permutations are form-agnostic.
// Conversions happen only at the boundaries: SetInt64Coeffs/SetBigCoeffs
// convert in (MForm), PolyToBigCentered converts out (IForm), and the one
// kernel that needs a true integer internally — base-conversion stage 1,
// whose centered digits cross moduli — folds a single REDC into its pass.
// Uniformly random rows (SampleUniform) need no conversion at all: x ↦ x·R
// is a bijection on Z_q.
// Serialization converts at the wire boundary, so encoded bytes carry true
// canonical residues.
//
// # Transform kernels
//
// The negacyclic transforms use Harvey butterflies on one Shoup twiddle table
// per direction (Modulus.psiShoup/psiInvShoup: each plain twiddle beside its
// Shoup companion), one wide multiply per twiddle product, intermediates on a
// [0, 4q) lazy window, and fused radix-4 row kernels
// (nttRowRadix4/inttRowRadix4): two consecutive radix-2 layers merged into
// one pass over the row, four coefficients per butterfly. The last stage
// leaves canonical residues — the inverse's with the N^-1 scaling folded in —
// so no pass follows the network. The test suite pins the kernels to a
// radix-2 Montgomery row kernel and to plain-residue Barrett loops with no
// lazy reduction — the slow, obviously-correct oracles (reference_test.go).
//
// All kernels dispatch through a two-dimensional execution engine (Engine,
// see exec.go) that parallelizes across RNS limbs and, when the active limbs
// alone cannot occupy every worker, across contiguous coefficient blocks
// within each residue row — so speedup does not saturate at the limb count
// (level+1): low-level ciphertexts keep the whole pool busy, exactly as the
// paper's PE grid distributes both limbs and coefficients. The transforms are
// the exception: each row is one task of the fused kernel, never split. Base
// conversion, the one coefficient-wise family, is instead cut into fixed
// coefficient tiles that each carry every limb (BasisExtender). Outputs are bit-identical to serial execution at
// every (worker, block) configuration. A Ring or BasisExtender starts serial;
// its owner attaches an engine with SetEngine (ckks.Context attaches its own
// to both rings and every extender), and an engine's workers stop once it is
// no longer referenced.
//
// # Kernel tiers
//
// Every kernel is portable Go, and four families also have an amd64
// assembly tier that CPUID selects (one probe at start-up, cpu_amd64.go),
// with no exported name, flag or environment variable to override it. The
// Go kernel stays as the fallback and as the tier's oracle in the tests:
//
//   - The NTT and iNTT row kernels (ntt_amd64.s) on AVX-512F/DQ: every
//     radix-4 pass, the odd-log2(N) radix-2 stage and the N^-1-scaled last
//     stage with eight coefficients per 512-bit register, word for word
//     equal to the Go passes, for N ≥ 32. Moduli below 2^51 take a third
//     tier where the CPU also has AVX-512 IFMA: the same passes with 52-bit
//     Shoup products, ending in the same words, in two pass sets, one below
//     2^50 and one from 2^50 that first reduces each multiplicand (see NTT).
//   - The element-wise rows (elem_amd64.s) on the same AVX-512F/DQ: the
//     Montgomery products and MACs (mulRow, mulAddRow and the gather rows
//     gatherMulRow, gatherMulAddRow that MulKeyPair runs for every
//     key-switch; mulRow and mulAddRow fold the linear transform's
//     diagonals; these four also on the IFMA tier, a two-step 52-bit REDC
//     for a first operand below q and any 64-bit second one), the Shoup
//     scalar rows (mulShoupRow, mulShoupAddRow), the division's
//     subtract-scale (SubMulLimbScalars; these three also on the IFMA tier
//     for canonical rows) and the Acc128 reduction (reduceAccRow), which
//     only the benchmark's ring.mac128_gbps kernel runs. Each runs its 8-word-aligned prefix
//     eight coefficients per register, word for word its Go row, which
//     takes the tail; the DQ tiers share lanes_amd64.h's exact 64×64-bit
//     product with ntt_amd64.s. The IFMA tier serves moduli below 2^51
//     (Modulus.ifma). The lane gather checks no index, so MulKeyPair
//     checks its table and rows once per call.
//   - BConv (bconvDigits and bconvLanes, bconv_amd64.s) on AVX-512 IFMA:
//     eight coefficients of one limb per 512-bit register, 52-bit
//     multiply-accumulates and an in-lane Montgomery reduction, word for
//     word equal to the Go convertTile (see BasisExtender).
//   - The seeded-key keystream (keystreamVAES, uniform_amd64.s) on 256-bit
//     VAES, byte for byte equal to crypto/aes in CTR mode (see
//     UniformSource).
//
// TestKernelPaths logs which tier this CPU runs; the assembly tiers' own
// tests skip, saying so, where the CPU lacks the instructions, and
// test-only switches run any test on the Go kernels alone, all four
// families at once (forceGo), or with the IFMA tier off (forceDQ).
package ring

import (
	"fmt"
	"math/big"
	"sync"

	"bts/internal/mod"
	"bts/internal/telemetry"
)

// Modulus bundles one RNS prime with the twiddle tables of the negacyclic
// NTT, the Montgomery constants of the operand×operand products and the
// Barrett constant kept for BConv's 128-bit dot products and true-residue
// scalar folds.
type Modulus struct {
	Q    uint64
	BRed mod.Barrett    // arbitrary 128-bit reduction (BConv stage 2, scalar folds)
	MRed mod.Montgomery // fused REDC multiply for products of two data words

	Psi    uint64 // primitive 2N-th root of unity (true residue)
	PsiInv uint64 // ψ^-1 mod q (true residue)
	NInv   uint64 // N^-1 mod q (true residue)

	// Twiddle tables in bit-reversed order (Longa–Naehrig layout), one per
	// direction, each plain residue interleaved with its Shoup companion
	// w′ = ⌊w·2^64/q⌋: psiShoup[2i], psiShoup[2i+1] = ψ^brv(i) and its w′,
	// psiInvShoup likewise for ψ^-brv(i). A Shoup multiply by a plain
	// constant maps x ↦ x·w mod q in whichever form x is in, so the tables
	// serve M-form rows as they are. The radix-4 group k reads pair k and the
	// adjacent pairs 2k, 2k+1 (its children in the next layer): two streams.
	psiShoup    []uint64
	psiInvShoup []uint64

	// ifma says whether the IFMA lane tier serves this modulus, fixed when
	// it is built from useIFMA (the CPU has AVX-512 IFMA): q < ifmaBound.
	// Its NTT passes (see NTT) and canonical-input Shoup rows then run
	// 52-bit Shoup products on the tables above, and its Montgomery rows
	// (MulCoeffs, Fold, MulKeyPair) a two-step 52-bit REDC.
	ifma bool
}

// ifmaBound bounds the moduli the IFMA tier serves: for q < 2^51 a 52-bit
// Shoup product (SHOUP52, lanes_amd64.h) of any word below 2^52 ends
// below 2q < 2^52, and every word MONTMUL52 (elem_amd64.s) multiplies is
// a whole VPMADD52 operand or is read for its low bits only, with its
// two-step REDC ending below 2q.
const ifmaBound = 1 << 51

// Ring is R_Q for a fixed degree N and a chain of prime moduli. CKKS uses two
// rings: one over the q-chain and one over the special p-chain (Section 2.5).
type Ring struct {
	N    int
	LogN int
	// Moduli is the full prime chain; operations accept a level parameter
	// selecting the active prefix Moduli[0..level].
	Moduli []*Modulus

	brv []int // bit-reversal permutation of [0,N)

	autoCache map[uint64][]int // NTT-domain automorphism index tables
	autoMu    sync.RWMutex     // guards autoCache for concurrent evaluation

	// exec fans limb-indexed kernels out across worker goroutines; a new
	// ring is serial (nil) until SetEngine attaches one (see exec.go).
	// polyPool backs the GetPolyNoZero/PutPoly zero-allocation scratch
	// discipline; accPool holds the 128-bit lazy MAC accumulators
	// (see acc.go).
	exec     *Engine
	polyPool sync.Pool
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
		ifma:   useIFMA && q < ifmaBound,
	}
	m.psiShoup = make([]uint64, 2*n)
	m.psiInvShoup = make([]uint64, 2*n)
	powPsi := uint64(1)
	powPsiInv := uint64(1)
	for i := 0; i < n; i++ {
		j := brv[i]
		m.psiShoup[2*j], m.psiShoup[2*j+1] = powPsi, mod.ShoupPrecomp(powPsi, q)
		m.psiInvShoup[2*j], m.psiInvShoup[2*j+1] = powPsiInv, mod.ShoupPrecomp(powPsiInv, q)
		powPsi = m.BRed.Mul(powPsi, m.Psi)
		powPsiInv = m.BRed.Mul(powPsiInv, m.PsiInv)
	}
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
