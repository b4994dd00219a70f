package ckks

import (
	"fmt"

	"bts/internal/ring"
)

// This file implements hoisted key-switching for rotation-heavy workloads
// (the optimization FAB exploits for bootstrapping's linear-transform
// phases, and HS18 introduced for HElib): when many rotations of the *same*
// ciphertext are needed — every baby step of a BSGS linear transform, i.e.
// the bulk of CoeffToSlot/SlotToCoeff — the expensive decomposition pipeline
// (iNTT → ModUp/BConv → NTT per β slice, Fig. 3a) is run once and reused.
//
// The factorization is exact: the Galois automorphism is a signed
// coefficient permutation, ModUp is per-coefficient, and the centered BConv
// (ring.BasisExtender) is negation-equivariant, so permuting the decomposed
// slices in the NTT domain (a pure index permutation) is bit-identical to
// decomposing the permuted ciphertext. A hoisted rotation therefore costs
// one gather-MAC against the rotation key — the permutation is fused into
// the multiply-accumulate's read index, never materialized — and one
// ModDown; the NTT/iNTT/BConv work, which dominates, is paid once per
// ciphertext instead of once per rotation. The gather-MAC is the streaming
// key-switch's own kernel (ring.MulKeyPair) handed the automorphism's index
// table, so both paths sum the same reduced products.
//
// Cost model (β = decomposition slices at the current level):
//
//	naive n rotations:   n·(iNTT + β·(BConv + 2 NTT) + β·MAC + 2 ModDown)
//	hoisted n rotations: 1·(iNTT + β·(BConv + 2 NTT)) + n·(β·gatherMAC + 2 ModDown)
//
// On top of single hoisted rotations, keySwitchHoistedLazy exposes the
// *double-hoisted* form used by LinearTransform: the MAC accumulators stay
// in the extended QP basis so baby-step products can be summed there, with
// one deferred ModDown per ciphertext component per giant step instead of
// one per rotation.

// HoistedDecomposition is the reusable key-switch decomposition of one
// ciphertext's a-polynomial: per decomposition slice j, the ModUp'd residues
// over the active q-basis and the level's special prefix P_ℓ, both in the
// NTT domain. It is scratch borrowed from the ring pools — callers must
// Release it when every dependent rotation has been applied, and must not
// use it after the source ciphertext's level changes.
type HoistedDecomposition struct {
	ctx   *Context
	level int
	beta  int
	q     []*ring.Poly // per slice, NTT domain, q-basis rows 0..level
	p     []*ring.Poly // per slice, NTT domain, P_ℓ rows 0..k_ℓ-1
}

// Level returns the ciphertext level the decomposition was taken at.
func (hd *HoistedDecomposition) Level() int { return hd.level }

// Release returns the decomposition's scratch polynomials to the ring pools.
// The decomposition must not be used afterwards.
func (hd *HoistedDecomposition) Release() {
	for _, p := range hd.q {
		hd.ctx.RingQ.PutPoly(p)
	}
	for _, p := range hd.p {
		hd.ctx.RingP.PutPoly(p)
	}
	hd.q, hd.p = nil, nil
}

// DecomposeNTT runs the decomposition half of the key-switch pipeline on
// ct.C1 — per slice: iNTT, ModUp to the rest of the QP basis, NTT — and
// returns it for reuse across many rotations of ct. See RotateHoisted for
// the common wrapper; LinearTransform consumes the decomposition directly.
func (ev *Evaluator) DecomposeNTT(ct *Ciphertext) *HoistedDecomposition {
	return ev.decomposeNTT(ct.C1, ct.Level)
}

// decomposeNTT is DecomposeNTT on a bare polynomial (NTT domain, level lvl).
func (ev *Evaluator) decomposeNTT(d *ring.Poly, lvl int) *HoistedDecomposition {
	ev.counters.Decompose.Add(1)
	sp := ev.begin(spanDecompose)
	sp.SetLevel(lvl)
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	sm := ctx.special[lvl]
	beta := ctx.Params.Beta(lvl)
	hd := &HoistedDecomposition{
		ctx:   ctx,
		level: lvl,
		beta:  beta,
		q:     make([]*ring.Poly, 0, beta),
		p:     make([]*ring.Poly, 0, beta),
	}

	// The copy for the iNTT carries the lift by [(P/P_ℓ)^-1]_{q_i}, as in
	// keySwitchMAC.
	dCoeff := rq.GetPolyNoZero()
	rq.MulLimbScalars(d, sm.lift, sm.liftShoup, dCoeff, 0, lvl)
	rq.INTT(dCoeff, lvl)

	// Each slice polynomial is fully overwritten by modUpSlice (lifted group
	// rows + BConv output rows), so the slices skip the zeroing pass; dst is
	// the BConv target-row view, reused across slices. The per-slice body is
	// shared with the streaming keySwitchMAC, which is what keeps hoisted and
	// naive outputs bit-identical.
	dst := make([][]uint64, 0, lvl+1+sm.k)
	for j := 0; j < beta; j++ {
		tmpQ := rq.GetPolyNoZero()
		tmpP := rp.GetPolyNoZero()
		dst = ev.modUpSlice(j, lvl, d, dCoeff, tmpQ, tmpP, dst)
		hd.q = append(hd.q, tmpQ)
		hd.p = append(hd.p, tmpP)
	}
	rq.PutPoly(dCoeff)
	ev.endSpan(&sp, nil)
	return hd
}

// keySwitchHoistedLazy applies the automorphism X→X^g to every decomposed
// slice and multiply-accumulates against the switching key, leaving the
// result in the extended Q_ℓ·P_ℓ basis: accQ0/accP0 and accQ1/accP1 are
// *overwritten* with the two key components' accumulators *before* the final
// division by P_ℓ (callers may pass unzeroed scratch). The laziness is that
// deferred ModDown: callers either hand the accumulators to keySwitchWith's
// modDowns (single hoisted rotation) or keep summing baby-step products in
// the extended basis and ModDown once per giant step (double hoisting).
//
// The MAC is the streaming keySwitchMAC's kernel, ring.MulKeyPair, given the
// automorphism's index table: it reads each slice through the table and
// regenerates the key's a_j rows from its seed as it goes, so no permuted
// copy of the extended basis and no expanded a_j is ever materialized. Each
// product is reduced as it is summed, as in the streaming path, so the two
// stay bit-identical. A coefficient's sum has only β terms — 1 at the
// bootstrap's dnum = 1, at most 4 on the benchmark's workloads — too few for
// unreduced 128-bit sums (ring.Acc128) to repay their zeroing and final
// fold. g = 1 skips the permutation.
func (ev *Evaluator) keySwitchHoistedLazy(g uint64, hd *HoistedDecomposition, swk *SwitchingKey, accQ0, accP0, accQ1, accP1 *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	lvl, lp := hd.level, ctx.special[hd.level].k-1
	var tableQ, tableP []int
	if g != 1 {
		ev.counters.HoistedRot.Add(1)
		tableQ = rq.AutoIndexNTT(g)
		tableP = rp.AutoIndexNTT(g)
	}
	a := ring.NewUniformSource(swk.Seed)
	for j := 0; j < hd.beta; j++ {
		aQ, aP := keyA(a, j)
		rq.MulKeyPair(hd.q[j], tableQ, swk.B[j].Q, aQ, accQ0, accQ1, lvl, j > 0)
		rp.MulKeyPair(hd.p[j], tableP, swk.B[j].P, aP, accP0, accP1, lp, j > 0)
	}
}

// rotationKey returns the switching key for the Galois element g, panicking
// with the same diagnostics as the naive rotation path.
func (ev *Evaluator) rotationKey(g uint64) *SwitchingKey {
	if ev.rtks == nil {
		panic("ckks: rotation without rotation keys")
	}
	swk, ok := ev.rtks.Keys[g]
	if !ok {
		panic(fmt.Sprintf("ckks: missing rotation key for Galois element %d", g))
	}
	return swk
}

// RotateHoisted returns HRot(ct, r) for every rotation amount in rotations,
// decomposing ct once and reusing the decomposition across all of them.
// Each output is bit-identical to the corresponding Rotate(ct, r) call;
// duplicate amounts map to a single result. Outputs are pooled ciphertexts —
// callers done with them may return each via Context.PutCiphertext.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rotations []int) map[int]*Ciphertext {
	sp := ev.begin(spanHoistedRot)
	defer ev.endSpan(&sp, nil)
	rq := ev.ctx.RingQ
	// Validate every key before borrowing any scratch, so a missing key
	// panics without leaking pool objects.
	for _, r := range rotations {
		if g := rq.GaloisElement(r); g != 1 {
			ev.rotationKey(g)
		}
	}
	hd := ev.DecomposeNTT(ct)
	defer hd.Release()
	out := make(map[int]*Ciphertext, len(rotations))
	for _, r := range rotations {
		if _, done := out[r]; done {
			continue
		}
		out[r] = ev.rotateHoisted(ct, r, hd)
	}
	return out
}

// RotateWithDecomposition applies a single rotation of ct through a prepared
// decomposition (DecomposeNTT of the same ciphertext, which must still be at
// the decomposition's level). The output is bit-identical to Rotate(ct, r).
// This is the entry point for callers that manage decomposition reuse
// themselves — the serving scheduler shares one decomposition across every
// rotation fan of a batch that reads the same ciphertext register, where
// RotateHoisted's one-call-per-fan shape would rebuild it per job. Missing
// rotation keys panic with the same diagnostics as Rotate.
func (ev *Evaluator) RotateWithDecomposition(ct *Ciphertext, r int, hd *HoistedDecomposition) *Ciphertext {
	if hd.level != ct.Level {
		panic(fmt.Sprintf("ckks: decomposition at level %d applied to ciphertext at level %d", hd.level, ct.Level))
	}
	if g := ev.ctx.RingQ.GaloisElement(r); g != 1 {
		ev.rotationKey(g)
	}
	return ev.rotateHoisted(ct, r, hd)
}

// rotateHoisted applies one rotation using a prepared decomposition of ct.
func (ev *Evaluator) rotateHoisted(ct *Ciphertext, r int, hd *HoistedDecomposition) *Ciphertext {
	g := ev.ctx.RingQ.GaloisElement(r)
	if g == 1 {
		return ev.ctx.copyCiphertextPooled(ct)
	}
	swk := ev.rotationKey(g)
	return ev.rotated(ct, g, func(accQ0, accP0, accQ1, accP1 *ring.Poly) {
		ev.keySwitchHoistedLazy(g, hd, swk, accQ0, accP0, accQ1, accP1)
	})
}
