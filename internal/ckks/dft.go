package ckks

import (
	"fmt"
	"math"
)

// This file factors the encoder's special FFT into sparse radix stages — the
// "factored linear transform" evaluation of CoeffToSlot/SlotToCoeff that the
// BTS paper's Table 2 assumes (and that FAB makes the centerpiece of
// practical bootstrapping): instead of one dense slots×slots matrix with one
// generalized diagonal per slot, the DFT is evaluated as a short chain of
// butterfly-group matrices with O(2^d) diagonals each, trading one level of
// depth per stage for a large drop in rotation count and key-switch work.
//
// Each radix-2 butterfly layer of fftSpecial/fftSpecialInv is itself a
// 3-diagonal matrix (diagonals {0, ±len/2}); merging d consecutive layers by
// matrix product yields a stage whose diagonal indices live on sums of
// {±2^a, ..., ±2^b} — at most 2^(d+1)-1 of them, collapsing further mod n.
// The bit-reversal permutation of the plain FFT is *omitted* from the
// factorization: a DFTInverse chain computes B·U^{-1} (slots come out in
// bit-reversed order) and a DFTForward chain computes U·B (slots go in
// bit-reversed), where B is the bit-reversal permutation matrix. B cancels
// exactly through any slot-wise pipeline — conjugation, scalar ops, EvalMod
// all commute with slot permutations — so a CoeffToSlot → EvalMod →
// SlotToCoeff composition is mathematically identical to the dense
// U^{-1}/U pair. This is why the factored bootstrap needs no repacking step.

// DFTKind selects the direction of a factored special-FFT chain.
type DFTKind int

const (
	// DFTInverse factors the encoding transform U^{-1} (slots ← coeffs:
	// the CoeffToSlot direction of bootstrapping).
	DFTInverse DFTKind = iota
	// DFTForward factors the decoding transform U (coeffs ← slots: the
	// SlotToCoeff direction).
	DFTForward
)

// dftButterflyDiags returns the 3-diagonal map of one radix-2 butterfly
// layer of the special FFT at the given block length, scaled by scale.
// Forward layers are the fftSpecial butterflies (u+wv, u-wv); inverse layers
// are the fftSpecialInv butterflies (u+v, (u-v)·w̄) — the twiddles follow the
// 5^j rotation group exactly as the plain encoder transforms do.
func (e *Encoder) dftButterflyDiags(kind DFTKind, length int, scale complex128) map[int][]complex128 {
	n := e.Slots()
	lenh, lenq := length>>1, length<<2
	gap := e.m / lenq
	d0 := make([]complex128, n)
	dPlus := make([]complex128, n)  // diagonal +lenh
	dMinus := make([]complex128, n) // diagonal -lenh ≡ n-lenh
	for i := 0; i < n; i += length {
		for j := 0; j < lenh; j++ {
			if kind == DFTForward {
				w := e.ksiPows[(e.rotGroup[j]%lenq)*gap] * scale
				d0[i+j] = scale
				dPlus[i+j] = w
				d0[i+j+lenh] = -w
				dMinus[i+j+lenh] = scale
			} else {
				w := e.ksiPows[(lenq-(e.rotGroup[j]%lenq))*gap] * scale
				d0[i+j] = scale
				dPlus[i+j] = scale
				d0[i+j+lenh] = -w
				dMinus[i+j+lenh] = w
			}
		}
	}
	diags := map[int][]complex128{0: d0}
	addDiagInto(diags, lenh%n, dPlus)
	addDiagInto(diags, (n-lenh)%n, dMinus)
	return diags
}

// addDiagInto accumulates vec onto diagonal k of diags (diagonals collide
// mod n: at length = n the ±n/2 butterfly diagonals are the same one).
func addDiagInto(diags map[int][]complex128, k int, vec []complex128) {
	if d, ok := diags[k]; ok {
		for j := range d {
			d[j] += vec[j]
		}
		return
	}
	diags[k] = vec
}

// composeDiags returns the diagonal representation of the matrix product a·b
// (a applied after b): out[k][j] = Σ_{ka+kb ≡ k (mod n)} a[ka][j] ·
// b[kb][(j+ka) mod n]. All-zero diagonals produced by index collisions are
// pruned.
func composeDiags(a, b map[int][]complex128, n int) map[int][]complex128 {
	out := map[int][]complex128{}
	for ka, da := range a {
		for kb, db := range b {
			k := ((ka+kb)%n + n) % n
			d := out[k]
			if d == nil {
				d = make([]complex128, n)
				out[k] = d
			}
			for j := 0; j < n; j++ {
				d[j] += da[j] * db[(j+ka)%n]
			}
		}
	}
	for k, d := range out {
		maxAbs := 0.0
		for _, v := range d {
			if a := cabs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < 1e-12 {
			delete(out, k)
		}
	}
	return out
}

func cabs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}

// DFTStageDiags returns the numStages merged diagonal maps of the factored
// special FFT, in homomorphic application order. The stages' matrix product
// equals B·U^{-1} for DFTInverse (the 1/n normalization folded in as 1/2 per
// butterfly layer) and U·B for DFTForward. Layer grouping mirrors the
// radix-grouped FFT: group depths differ by at most one, with the larger
// groups placed where the classic factored bootstrap puts them (first for
// the inverse, last for the forward direction) so that a CoeffToSlot /
// SlotToCoeff pair produces mirrored stage shapes and shares most of its
// rotation keys.
func (e *Encoder) DFTStageDiags(kind DFTKind, numStages int) ([]map[int][]complex128, error) {
	n := e.Slots()
	logn := 0
	for 1<<logn < n {
		logn++
	}
	if numStages < 1 || numStages > logn {
		return nil, fmt.Errorf("ckks: %d DFT stages outside [1,log2(slots)=%d]", numStages, logn)
	}
	// Group depths: ceil-balanced, larger groups first (inverse) or last
	// (forward) — the lattigo-style merge order that minimizes the union of
	// stage diagonal sets across a CtS/StC pair.
	sizes := make([]int, numStages)
	rem := logn
	for i := 0; i < numStages; i++ {
		d := (rem + numStages - i - 1) / (numStages - i)
		if kind == DFTInverse {
			sizes[i] = d
		} else {
			sizes[numStages-1-i] = d
		}
		rem -= d
	}
	// Butterfly layer lengths in application order: the inverse runs blocks
	// n → 2 (then bit-reverses, omitted), the forward runs 2 → n (after the
	// omitted bit-reverse).
	lengths := make([]int, 0, logn)
	if kind == DFTInverse {
		for length := n; length >= 2; length >>= 1 {
			lengths = append(lengths, length)
		}
	} else {
		for length := 2; length <= n; length <<= 1 {
			lengths = append(lengths, length)
		}
	}
	stages := make([]map[int][]complex128, 0, numStages)
	idx := 0
	for _, sz := range sizes {
		var acc map[int][]complex128
		for f := 0; f < sz; f++ {
			scale := complex(1, 0)
			if kind == DFTInverse {
				scale = 0.5 // n layers of 1/2 make up the 1/n of U^{-1}
			}
			fac := e.dftButterflyDiags(kind, lengths[idx], scale)
			idx++
			if acc == nil {
				acc = fac
			} else {
				// This layer is applied after the accumulated ones.
				acc = composeDiags(fac, acc, n)
			}
		}
		stages = append(stages, acc)
	}
	return stages, nil
}

// EncodeDFTStages factors the encoding (DFTInverse, CoeffToSlot) or decoding
// (DFTForward, SlotToCoeff) matrix into numStages sparse radix stages and
// encodes them as a TransformChain starting at levelStart: stage i is
// encoded at level levelStart-i with plaintext scale Q[levelStart-i], so
// evaluating each stage followed by one rescale keeps the ciphertext scale
// invariant while consuming exactly numStages levels. factor is an extra
// real scalar distributed evenly (factor^(1/numStages) per stage) across the
// chain — the Δ/q0 and q0/Δ normalizations of the bootstrapping pipeline.
//
// See the package comment of this file for the bit-reversal convention: the
// chain's product is B·U^{-1} (inverse) or U·B (forward), which compose to
// the exact dense pair through any slot-wise pipeline.
func (e *Encoder) EncodeDFTStages(kind DFTKind, numStages, levelStart int, factor float64) (*TransformChain, error) {
	return e.EncodeDFTStagesShifted(kind, numStages, levelStart, factor, 1)
}

// EncodeDFTStagesShifted is EncodeDFTStages with an additional exact output
// scale shift: the last stage is encoded at plaintext scale Q[level]·shift
// instead of Q[level], so evaluating the chain multiplies the ciphertext
// scale by shift while the represented values are untouched. The staged
// bootstrapping pipeline uses shift = 1/scaleBoost on SlotToCoeff to fold
// its working-scale boost back out (see Bootstrapper); shift = 1 reproduces
// EncodeDFTStages exactly.
func (e *Encoder) EncodeDFTStagesShifted(kind DFTKind, numStages, levelStart int, factor, shift float64) (*TransformChain, error) {
	p := e.ctx.Params
	if levelStart > p.MaxLevel() {
		return nil, fmt.Errorf("ckks: DFT chain start level %d above max %d", levelStart, p.MaxLevel())
	}
	if levelStart-numStages+1 < 1 {
		return nil, fmt.Errorf("ckks: DFT chain of %d stages from level %d leaves stage %d unrescalable",
			numStages, levelStart, numStages-1)
	}
	stageDiags, err := e.DFTStageDiags(kind, numStages)
	if err != nil {
		return nil, err
	}
	perStage := complex(math.Pow(factor, 1/float64(numStages)), 0)
	stages := make([]*LinearTransform, 0, numStages)
	for i, diags := range stageDiags {
		for _, d := range diags {
			for j := range d {
				d[j] *= perStage
			}
		}
		level := levelStart - i
		scale := float64(p.Q[level])
		if i == numStages-1 {
			scale *= shift
		}
		lt, err := NewLinearTransform(e, diags, level, scale)
		if err != nil {
			return nil, err
		}
		stages = append(stages, lt)
	}
	return NewTransformChain(stages...)
}
