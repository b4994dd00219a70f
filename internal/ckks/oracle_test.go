package ckks

import "fmt"

// Reference evaluations the production paths are checked against: the eager
// BSGS evaluator (the hoisted LinearTransform's oracle) and the dense,
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
