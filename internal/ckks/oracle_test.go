package ckks

import (
	"fmt"

	"bts/internal/ring"
)

// Reference evaluations the production paths are checked against: the eager
// BSGS evaluator (the hoisted LinearTransform's oracle up to rounding), the
// per-giant-step fold (its word-for-word oracle) and the dense,
// unfactored bootstrap transforms (the staged chains' oracle). Nothing
// outside the tests reaches them.

// linearTransformEager is the reference BSGS evaluation: every baby step is
// a full naive rotation (its own decomposition) and every diagonal product
// goes through a ModDown'd ciphertext. Results agree with LinearTransform up
// to the (smaller) deferred-ModDown rounding noise.
func (ev *Evaluator) linearTransformEager(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	ctx := ev.ctx
	byGiant, giants, need := lt.byGiantStep()
	// Baby-step rotations of the input.
	babies := map[int]*Ciphertext{}
	for b := range need {
		if b == 0 {
			babies[0] = ct
		} else {
			babies[b] = ev.Rotate(ct, b)
		}
	}

	var out *Ciphertext
	for _, g := range giants {
		var inner *Ciphertext
		for _, k := range byGiant[g] {
			term := ev.MulPlain(babies[k%lt.n1], lt.diags[k])
			if inner == nil {
				inner = term
			} else {
				ev.AddInPlace(inner, term)
				ctx.PutCiphertext(term)
			}
		}
		if g != 0 {
			rot := ev.Rotate(inner, g*lt.n1)
			ctx.PutCiphertext(inner)
			inner = rot
		}
		if out == nil {
			out = inner
		} else {
			ev.AddInPlace(out, inner)
			ctx.PutCiphertext(inner)
		}
	}
	for b, baby := range babies {
		if b != 0 {
			ctx.PutCiphertext(baby)
		}
	}
	return out
}

// linearTransformPerGiant is LinearTransform folded one giant step at a
// time, with no C0 lift and no tiling: each diagonal product is one
// full-row call into that giant's six accumulators — the rotated C0
// products summed in the plain q basis beside the extended QP sums — with
// the same decomposition, MACs, ModDowns, rotations and op counts.
// LinearTransform must match it word for word.
func (ev *Evaluator) linearTransformPerGiant(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	sp := ev.begin(spanLinear)
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	lvl := ct.Level
	if lt.Level < lvl {
		lvl = lt.Level
	}
	// The P-part diagonals hold k_{lt.Level} rows; below lt.Level the
	// key-switch reads only their first k_lvl (k_ℓ never falls as ℓ grows).
	lp := ctx.special[lvl].k - 1
	scale := ct.Scale * lt.Scale

	byGiant, giants, need := lt.byGiantStep()

	// Validate every rotation key up front so a missing key panics before
	// any scratch is borrowed.
	for b := range need {
		if b != 0 {
			ev.rotationKey(rq.GaloisElement(b))
		}
	}
	for _, g := range giants {
		if g != 0 {
			ev.rotationKey(rq.GaloisElement(g * lt.n1))
		}
	}

	// Hoisted baby steps: decompose ct once, then per baby rotation keep the
	// rotated C0 (q-basis) and the key-switch MAC accumulators in the
	// extended QP basis — no ModDown yet (double hoisting). A transform
	// whose diagonals all sit on giant-step boundaries has no nonzero baby
	// step and skips the decomposition entirely.
	type babyExt struct {
		c0     *ring.Poly // σ_b(ct.C0), q-basis
		q0, q1 *ring.Poly // key-switch accumulators, q part
		p0, p1 *ring.Poly // key-switch accumulators, p part
	}
	babies := make(map[int]*babyExt, len(need))
	var hd *HoistedDecomposition
	for b := range need {
		if b == 0 {
			continue
		}
		if hd == nil {
			ev.counters.Decompose.Add(1)
			dsp := ev.begin(spanDecompose)
			dsp.SetLevel(lvl)
			hd = ev.decompose(ct.C1, lvl)
			ev.endSpan(&dsp, nil)
		}
		ev.counters.HoistedRot.Add(1)
		g := rq.GaloisElement(b)
		be := &babyExt{
			c0: rq.GetPolyNoZero(),
			q0: rq.GetPolyNoZero(), // keySwitchMAC overwrites
			q1: rq.GetPolyNoZero(),
			p0: rp.GetPolyNoZero(),
			p1: rp.GetPolyNoZero(),
		}
		rq.AutomorphismNTT(ct.C0, g, be.c0, lvl)
		ev.keySwitchMAC(g, hd, ev.rotationKey(g), be.q0, be.p0, be.q1, be.p1)
		babies[b] = be
	}
	if hd != nil {
		hd.Release()
	}

	// Giant-step accumulators: each diagonal product is folded straight into
	// reduced polynomials with the key-switch's Montgomery MAC — the plain
	// q-basis sums of diagonal × rotated-C0 products, and the extended QP
	// sums of diagonal × key-switch-accumulator products ahead of the
	// deferred ModDown. An accumulator's first product overwrites it
	// (MulCoeffs), every later one adds (MulCoeffsAndAdd).
	plain0 := rq.GetPolyNoZero()
	plain1 := rq.GetPolyNoZero()
	ext0 := rq.GetPolyNoZero()
	ext1 := rq.GetPolyNoZero()
	extP0 := rp.GetPolyNoZero()
	extP1 := rp.GetPolyNoZero()
	mac := func(r *ring.Ring, first bool, a, b, acc *ring.Poly, level int) {
		r.Fold([]ring.FoldOp{{A: a, B: b, Acc: acc, First: first}}, level)
	}

	var out *Ciphertext
	for _, g := range giants {
		group := byGiant[g]
		ev.counters.PMult.Add(int64(len(group))) // diagonal folds
		// A group is sorted, so its baby-0 diagonal (k = g·n1), if any,
		// comes first; only it reaches plain1.
		if group[0]%lt.n1 != 0 {
			rq.Zero(plain1, lvl)
		}
		hasExt := false
		for i, k := range group {
			pt, ptP := lt.diags[k].Value, lt.diagsP[k]
			b := k % lt.n1
			if b == 0 {
				// The un-rotated operand has no extended part.
				rq.MulCoeffs(pt, ct.C0, plain0, lvl)
				rq.MulCoeffs(pt, ct.C1, plain1, lvl)
				continue
			}
			be := babies[b]
			mac(rq, i == 0, pt, be.c0, plain0, lvl)
			mac(rq, !hasExt, pt, be.q0, ext0, lvl)
			mac(rp, !hasExt, ptP, be.p0, extP0, lp)
			mac(rq, !hasExt, pt, be.q1, ext1, lvl)
			mac(rp, !hasExt, ptP, be.p1, extP1, lp)
			hasExt = true
		}

		// One deferred ModDown per component folds the whole giant step's
		// baby products out of the extended basis at once.
		inner := ctx.getCiphertextNoZero(lvl, scale)
		if hasExt {
			ev.modDown(ext0, extP0, lvl, 0, inner.C0)
			ev.modDown(ext1, extP1, lvl, 0, inner.C1)
			rq.Add(inner.C0, plain0, inner.C0, lvl)
			rq.Add(inner.C1, plain1, inner.C1, lvl)
		} else {
			rq.CopyLevel(inner.C0, plain0, lvl)
			rq.CopyLevel(inner.C1, plain1, lvl)
		}
		if g != 0 {
			rot := ev.Rotate(inner, g*lt.n1)
			ctx.PutCiphertext(inner)
			inner = rot
		}
		if out == nil {
			out = inner
		} else {
			ev.AddInPlace(out, inner)
			ctx.PutCiphertext(inner)
		}
	}

	rp.PutPoly(extP1)
	rp.PutPoly(extP0)
	rq.PutPoly(ext1)
	rq.PutPoly(ext0)
	rq.PutPoly(plain1)
	rq.PutPoly(plain0)
	for _, be := range babies {
		rp.PutPoly(be.p1)
		rp.PutPoly(be.p0)
		rq.PutPoly(be.q1)
		rq.PutPoly(be.q0)
		rq.PutPoly(be.c0)
	}
	ev.endSpan(&sp, out)
	return out
}

// macAdd sets acc += a ⊙ b on rows [0..level] with one single-op Fold: the
// reduced Montgomery MAC, one product per call.
func macAdd(r *ring.Ring, a, b, acc *ring.Poly, level int) {
	r.Fold([]ring.FoldOp{{A: a, B: b, Acc: acc}}, level)
}

// transformChainEager is TransformChain with every stage evaluated by
// linearTransformEager. ct must be at the chain's level or above.
func (ev *Evaluator) transformChainEager(ct *Ciphertext, tc *TransformChain) *Ciphertext {
	cur := ct
	for _, lt := range tc.stages {
		cur = ev.Rescale(ev.linearTransformEager(cur, lt))
	}
	return cur
}

// probeColumns applies transform to each basis vector, returning columns.
func probeColumns(n int, transform func([]complex128)) [][]complex128 {
	cols := make([][]complex128, n)
	for k := 0; k < n; k++ {
		v := make([]complex128, n)
		v[k] = 1
		transform(v)
		cols[k] = v
	}
	return cols
}

// matrixFromFunc builds the diagonal representation of an arbitrary n×n
// complex matrix given entry-wise, dropping diagonals whose largest entry is
// below dropTol (0 keeps everything).
func matrixFromFunc(n int, entry func(row, col int) complex128, dropTol float64) map[int][]complex128 {
	diags := map[int][]complex128{}
	for k := 0; k < n; k++ {
		d := make([]complex128, n)
		maxAbs := 0.0
		for j := 0; j < n; j++ {
			d[j] = entry(j, (j+k)%n)
			if a := cabs(d[j]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > dropTol {
			diags[k] = d
		}
	}
	return diags
}

// denseChains returns the unfactored counterparts of the chains of bt, a
// bootstrapper built with CtSStages 2, StCStages 1 and sine range K = k: the
// special FFT probed column by column into the dense matrices U⁻¹ and U.
// CoeffToSlot is the dense U⁻¹ followed by a one-diagonal stage carrying
// Δ/(2K·q0) — the coefficient scaling and the map into the Chebyshev
// domain, as bt's own chain carries them: folding the factor into the dense
// matrix's single-prime plaintext would starve its entries of precision
// (≈1e-2 bootstrap error with Δ/q0 alone folded, against ≈4e-4), so it spends a second level, as
// the two-prime dense encoding once did. SlotToCoeff is the dense U·(q0/Δ)
// in one stage that also sheds bt's
// working-scale boost. Each stage sits at the level and scale where bt's own
// stage does. The slots stay in natural order throughout, where the factored
// chains leave them bit-reversed in between.
func denseChains(bt *Bootstrapper, k float64) (cts, stc *TransformChain, err error) {
	if bt.ctsChain.Depth() != 2 || bt.stcChain.Depth() != 1 {
		return nil, nil, fmt.Errorf("dense chains replace a {CtS 2, StC 1} bootstrapper's, got {%d, %d}",
			bt.ctsChain.Depth(), bt.stcChain.Depth())
	}
	p := bt.ctx.Params
	n := p.Slots()
	enc := bt.encoder
	dense := func(transform func([]complex128), factor float64, level int, scale float64) (*LinearTransform, error) {
		cols := probeColumns(n, transform)
		f := complex(factor, 0)
		diags := matrixFromFunc(n, func(r, c int) complex128 { return cols[c][r] * f }, 0)
		return NewLinearTransform(enc, diags, level, scale)
	}
	q0, delta := float64(p.Q[0]), p.Scale
	ctsLevel, stcLevel := bt.ctsChain.Level(), bt.stcChain.Level()
	u, err := dense(enc.fftSpecialInv, 1, ctsLevel, float64(p.Q[ctsLevel]))
	if err != nil {
		return nil, nil, err
	}
	diag := make([]complex128, n)
	for j := range diag {
		diag[j] = complex(delta/(2*k*q0), 0)
	}
	norm, err := NewLinearTransform(enc, map[int][]complex128{0: diag}, ctsLevel-1, float64(p.Q[ctsLevel-1]))
	if err != nil {
		return nil, nil, err
	}
	if cts, err = NewTransformChain(u, norm); err != nil {
		return nil, nil, err
	}
	v, err := dense(enc.fftSpecial, q0/delta, stcLevel, float64(p.Q[stcLevel])/bt.scaleBoost)
	if err != nil {
		return nil, nil, err
	}
	if stc, err = NewTransformChain(v); err != nil {
		return nil, nil, err
	}
	return cts, stc, nil
}
