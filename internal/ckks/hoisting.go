package ckks

import (
	"fmt"

	"bts/internal/ring"
)

// This file holds the key-switch pipeline of Fig. 3(a) — iNTT → ModUp/BConv
// → NTT per β slice, MAC with the evk, ModDown — which every HMult and HRot
// runs. It comes in two halves: decompose runs the decomposition of one
// polynomial and keeps every slice, and keySwitchMAC multiply-accumulates
// the slices against a switching key. MulRelin, Rotate and Conjugate
// decompose their operand, run one MAC and release the slices; a rotation
// fan (RotateHoisted, the serving scheduler, every BSGS baby step of a
// LinearTransform and so the bulk of CoeffToSlot/SlotToCoeff) decomposes
// once and runs one MAC per rotation — hoisting, the optimization FAB
// exploits for bootstrapping and HS18 introduced for HElib.
//
// The automorphism never touches the decomposition: the Galois map is a
// signed coefficient permutation, ModUp is per-coefficient, and the centered
// BConv (ring.BasisExtender) is negation-equivariant, so permuting the
// decomposed slices in the NTT domain (a pure index permutation, the same
// for every prime of both bases) is bit-identical to decomposing the
// permuted polynomial. The MAC kernel (ring.MulKeyPair) takes the
// automorphism's index table and reads each slice through it, so σ_g is
// never materialized; Rotate permutes only C0.
//
// Cost model (β = decomposition slices at the current level):
//
//	n single rotations:  n·(iNTT + β·(BConv + 2 NTT) + β·gatherMAC + 2 ModDown)
//	hoisted n rotations: 1·(iNTT + β·(BConv + 2 NTT)) + n·(β·gatherMAC + 2 ModDown)
//
// LinearTransform goes one step further (double hoisting): it keeps each
// baby step's MAC accumulators in the extended QP basis, sums the diagonal
// products there, and pays one deferred ModDown per ciphertext component
// per giant step instead of one per rotation.

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
// the common wrapper; LinearTransform decomposes on its own.
func (ev *Evaluator) DecomposeNTT(ct *Ciphertext) *HoistedDecomposition {
	ev.counters.Decompose.Add(1)
	sp := ev.begin(spanDecompose)
	sp.SetLevel(ct.Level)
	hd := ev.decompose(ct.C1, ct.Level)
	ev.endSpan(&sp, nil)
	return hd
}

// decompose is the key-switch's decomposition of d (NTT domain, level lvl),
// every slice kept. The copy for the iNTT carries the level's lift
// [(P/P_ℓ)^-1]_{q_i}. Per slice j, the residues of group j of that copy are
// extended to the rest of the Q_ℓ·P_ℓ basis (ModUp/BConv), and only those
// rows — the out-of-group q-rows and the k_ℓ p-rows — go through the forward
// NTT. The group's own rows are d's, lifted the same way: NTT(iNTT(x)) = x
// word for word, because both transforms end in canonical residues, so
// transforming them back would recompute what the lifted copy already holds
// (with dnum = 1 that is every q-row). Each slice is fully overwritten, so
// none is zeroed; dst is the BConv target-row view, reused across slices.
func (ev *Evaluator) decompose(d *ring.Poly, lvl int) *HoistedDecomposition {
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

	dCoeff := rq.GetPolyNoZero()
	rq.MulLimbScalars(d, sm.lift, sm.liftShoup, dCoeff, 0, lvl)
	rq.INTT(dCoeff, lvl)

	dst := make([][]uint64, 0, lvl+1+sm.k)
	for j := 0; j < beta; j++ {
		tmpQ := rq.GetPolyNoZero()
		tmpP := rp.GetPolyNoZero()
		lo, hi := ctx.groupRange(j, lvl)
		dst = dst[:0]
		for i := 0; i <= lvl; i++ {
			if i < lo || i > hi {
				dst = append(dst, tmpQ.Coeffs[i])
			}
		}
		dst = append(dst, tmpP.Coeffs[:sm.k]...)
		ctx.modUpExtender(j, lvl).Convert(dCoeff.Coeffs[lo:hi+1], dst)
		rq.MulLimbScalars(d, sm.lift, sm.liftShoup, tmpQ, lo, hi)
		rq.NTTExcept(tmpQ, lvl, lo, hi)
		rp.NTT(tmpP, sm.k-1)
		hd.q = append(hd.q, tmpQ)
		hd.p = append(hd.p, tmpP)
	}
	rq.PutPoly(dCoeff)
	return hd
}

// keySwitchMAC applies the automorphism X→X^g to every decomposed slice and
// multiply-accumulates against the switching key, leaving the result in the
// extended Q_ℓ·P_ℓ basis: accQ0/accP0 and accQ1/accP1 are *overwritten*
// with the two key components' accumulators *before* the final division by
// P_ℓ (callers may pass unzeroed scratch). Callers either hand the
// accumulators to keySwitchWith's modDowns or, in LinearTransform, keep
// summing baby-step products in the extended basis and ModDown once per
// giant step.
//
// The MAC kernel, ring.MulKeyPair, reads each slice through the
// automorphism's index table and regenerates the key's a_j rows from its
// seed as it goes, so no permuted copy of the extended basis and no expanded
// a_j is ever materialized. The table depends only on N and g, so the
// q-ring's serves the P rows too; g = 1 (relinearization) has none. Each
// product is reduced as it is summed, as in LinearTransform's diagonal
// folds: both run the same Montgomery MAC rows.
func (ev *Evaluator) keySwitchMAC(g uint64, hd *HoistedDecomposition, swk *SwitchingKey, accQ0, accP0, accQ1, accP1 *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	lvl, lp := hd.level, ctx.special[hd.level].k-1
	var table []int
	if g != 1 {
		table = rq.AutoIndexNTT(g)
	}
	a := ring.NewUniformSource(swk.Seed)
	for j := 0; j < hd.beta; j++ {
		aQ, aP := keyA(a, j)
		rq.MulKeyPair(hd.q[j], table, swk.B[j].Q, aQ, accQ0, accQ1, lvl, j > 0)
		rp.MulKeyPair(hd.p[j], table, swk.B[j].P, aP, accP0, accP1, lp, j > 0)
	}
}

// rotationKey returns the switching key for the Galois element g, panicking
// with Rotate's diagnostics when it is missing.
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
// themselves — a serving job shares one decomposition across the rotations
// of a stage that read the same operand, each of which is its own node
// rather than one RotateHoisted call. Missing rotation keys panic with the
// same diagnostics as Rotate.
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
		return ev.ctx.CopyPooled(ct)
	}
	ev.counters.HoistedRot.Add(1)
	swk := ev.rotationKey(g)
	return ev.rotated(ct, g, func(accQ0, accP0, accQ1, accP1 *ring.Poly) {
		ev.keySwitchMAC(g, hd, swk, accQ0, accP0, accQ1, accP1)
	})
}
