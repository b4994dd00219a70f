package ckks

import (
	"fmt"
	"math"

	"bts/internal/mod"
	"bts/internal/ring"
	"bts/internal/telemetry"
)

// scaleTolerance is the maximum relative scale mismatch silently accepted by
// homomorphic additions. With primes generated within ~2^-25 of the nominal
// scale, drift across an entire bootstrapping stays far below this bound.
const scaleTolerance = 1.0 / (1 << 8)

// Evaluator applies the primitive HE ops of Section 2.3: HAdd, HMult (tensor
// product + key-switching, Eq. 3-4), HRot (automorphism + key-switching,
// Eq. 5-6), HRescale, and the plaintext/constant variants.
//
// Ops returning a fresh ciphertext draw it from the context's ciphertext
// pool: callers that are done with a result may hand it back via
// Context.PutCiphertext so steady-state evaluation allocates nothing, or
// simply drop it for the garbage collector. An Evaluator is safe for
// concurrent use by multiple goroutines (the serving runtime runs several
// ciphertexts in flight through one evaluator); all scratch comes from
// per-ring sync.Pools. The one exception is a traced copy — see WithTrace.
// The bootstrap itself forks: EvalMod's two sines run on private shallow
// copies of the evaluator it is given, as two tasks of the context's engine.
type Evaluator struct {
	ctx     *Context
	encoder *Encoder
	rlk     *SwitchingKey
	rtks    *RotationKeySet

	// counters tallies the op mix for the internal/sim calibration
	// cross-check and the serving op-mix export (see counters.go). It is a
	// pointer so WithTrace/WithNoiseFloor copies keep feeding one tally.
	counters *opCounters

	// noise, when non-nil, receives the margin of every scale-changing op's
	// output (see noise.go). Shared across evaluator copies by pointer.
	noise *NoiseFloor

	// tr/cur carry per-job tracing state: tr is the trace spans record into
	// (zero = tracing off) and cur the span ID nested spans parent under.
	// Only WithTrace copies ever have an active tr, and only they mutate
	// cur — which is why a traced evaluator is single-goroutine (see
	// WithTrace) while the shared original stays concurrency-safe.
	tr  telemetry.Trace
	cur uint64
}

// NewEvaluator builds an evaluator. rlk may be nil if no multiplications are
// relinearized; rtks may be nil if no rotations are performed.
func NewEvaluator(ctx *Context, encoder *Encoder, rlk *SwitchingKey, rtks *RotationKeySet) *Evaluator {
	return &Evaluator{ctx: ctx, encoder: encoder, rlk: rlk, rtks: rtks, counters: new(opCounters)}
}

func (ev *Evaluator) params() Parameters { return ev.ctx.Params }

// HasRelinearizationKey reports whether MulRelin can run; it panics without
// the key.
func (ev *Evaluator) HasRelinearizationKey() bool { return ev.rlk != nil }

// HasGaloisKey reports whether the automorphism X → X^g can run (Rotate,
// Conjugate); they panic without its key. The identity needs none.
func (ev *Evaluator) HasGaloisKey(g uint64) bool {
	if g == 1 {
		return true
	}
	if ev.rtks == nil {
		return false
	}
	_, ok := ev.rtks.Keys[g]
	return ok
}

// alignLevels returns min(ct0.Level, ct1.Level).
func alignLevels(ct0, ct1 *Ciphertext) int {
	if ct0.Level < ct1.Level {
		return ct0.Level
	}
	return ct1.Level
}

// ScalesMatch reports whether two operands' scales are close enough for Add,
// Sub and AddPlain, which panic otherwise: their relative difference is at
// most scaleTolerance.
func ScalesMatch(s0, s1 float64) bool {
	return max(s0, s1)/min(s0, s1)-1 <= scaleTolerance
}

func checkScales(s0, s1 float64, op string) float64 {
	if !ScalesMatch(s0, s1) {
		panic(fmt.Sprintf("ckks: %s with mismatched scales 2^%.3f vs 2^%.3f", op, math.Log2(s0), math.Log2(s1)))
	}
	return max(s0, s1)
}

// Add returns ct0 + ct1 (HAdd, Eq. 2).
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) *Ciphertext {
	lvl := alignLevels(ct0, ct1)
	scale := checkScales(ct0.Scale, ct1.Scale, "Add")
	out := ev.ctx.getCiphertextNoZero(lvl, scale)
	ev.ctx.RingQ.Add(ct0.C0, ct1.C0, out.C0, lvl)
	ev.ctx.RingQ.Add(ct0.C1, ct1.C1, out.C1, lvl)
	return out
}

// AddInPlace folds ct1 into ct0 (HAdd without allocating the output), the
// accumulator form used by the linear-transform and Chebyshev inner loops.
// ct0's level drops to the minimum of the two operands.
func (ev *Evaluator) AddInPlace(ct0, ct1 *Ciphertext) {
	lvl := alignLevels(ct0, ct1)
	scale := checkScales(ct0.Scale, ct1.Scale, "AddInPlace")
	ev.ctx.RingQ.Add(ct0.C0, ct1.C0, ct0.C0, lvl)
	ev.ctx.RingQ.Add(ct0.C1, ct1.C1, ct0.C1, lvl)
	ct0.Level = lvl
	ct0.Scale = scale
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) *Ciphertext {
	lvl := alignLevels(ct0, ct1)
	scale := checkScales(ct0.Scale, ct1.Scale, "Sub")
	out := ev.ctx.getCiphertextNoZero(lvl, scale)
	ev.ctx.RingQ.Sub(ct0.C0, ct1.C0, out.C0, lvl)
	ev.ctx.RingQ.Sub(ct0.C1, ct1.C1, out.C1, lvl)
	return out
}

// Neg returns -ct.
func (ev *Evaluator) Neg(ct *Ciphertext) *Ciphertext {
	out := ev.ctx.getCiphertextNoZero(ct.Level, ct.Scale)
	ev.ctx.RingQ.Neg(ct.C0, out.C0, ct.Level)
	ev.ctx.RingQ.Neg(ct.C1, out.C1, ct.Level)
	return out
}

// AddPlain returns ct + pt (PAdd).
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	lvl := ct.Level
	if pt.Level < lvl {
		lvl = pt.Level
	}
	scale := checkScales(ct.Scale, pt.Scale, "AddPlain")
	out := ev.ctx.getCiphertextNoZero(lvl, scale)
	ev.ctx.RingQ.Add(ct.C0, pt.Value, out.C0, lvl)
	ev.ctx.RingQ.CopyLevel(out.C1, ct.C1, lvl)
	return out
}

// MulPlain returns ct ⊙ pt (PMult) without rescaling; the output scale is the
// product of the input scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	ev.counters.PMult.Add(1)
	lvl := ct.Level
	if pt.Level < lvl {
		lvl = pt.Level
	}
	out := ev.ctx.getCiphertextNoZero(lvl, ct.Scale*pt.Scale)
	ev.ctx.RingQ.MulCoeffs(ct.C0, pt.Value, out.C0, lvl)
	ev.ctx.RingQ.MulCoeffs(ct.C1, pt.Value, out.C1, lvl)
	ev.observeMargin(out)
	return out
}

// AddConst returns ct + c, adding the constant to every slot. Exact for the
// real part (a constant polynomial) and uses the X^(N/2) monomial for the
// imaginary part, so no level is consumed.
func (ev *Evaluator) AddConst(ct *Ciphertext, c complex128) *Ciphertext {
	out := ev.ctx.copyCiphertextPooled(ct)
	rq := ev.ctx.RingQ
	re := int64(math.Round(real(c) * ct.Scale))
	im := int64(math.Round(imag(c) * ct.Scale))
	if re != 0 {
		// A constant polynomial has the same value in every NTT slot. The
		// ciphertext rows are in Montgomery form, so the constant is lifted
		// to M-form before the additive fold.
		rq.ForEachLimbBlock(ct.Level, func(i, lo, hi int) {
			q := rq.Moduli[i].Q
			var w uint64
			if re >= 0 {
				w = uint64(re) % q
			} else {
				w = q - uint64(-re)%q
			}
			w = rq.Moduli[i].MRed.MForm(w)
			row := out.C0.Coeffs[i]
			for j := lo; j < hi; j++ {
				row[j] = mod.Add(row[j], w, q)
			}
		})
	}
	if im != 0 {
		mono := rq.GetPolyNoZero()
		one := rq.GetPolyNoZero()
		rq.ForEachLimbBlock(ct.Level, func(i, lo, hi int) {
			q := rq.Moduli[i].Q
			var w uint64
			if im >= 0 {
				w = uint64(im) % q
			} else {
				w = q - uint64(-im)%q
			}
			w = rq.Moduli[i].MRed.MForm(w)
			row := one.Coeffs[i]
			for j := lo; j < hi; j++ {
				row[j] = w
			}
		})
		rq.MulByMonomialNTT(one, rq.N/2, mono, ct.Level)
		rq.Add(out.C0, mono, out.C0, ct.Level)
		rq.PutPoly(one)
		rq.PutPoly(mono)
	}
	return out
}

// MulConst multiplies every slot by the constant c, encoding it at constScale
// (the output scale is ct.Scale*constScale and no rescaling is performed).
// Pure real constants use a scalar fast path; complex constants combine the
// real scalar with the exact X^(N/2) imaginary unit.
func (ev *Evaluator) MulConst(ct *Ciphertext, c complex128, constScale float64) *Ciphertext {
	rq := ev.ctx.RingQ
	lvl := ct.Level
	re := int64(math.Round(real(c) * constScale))
	im := int64(math.Round(imag(c) * constScale))
	out := ev.ctx.getCiphertextNoZero(lvl, ct.Scale*constScale)
	rq.MulScalarInt64(ct.C0, re, out.C0, lvl)
	rq.MulScalarInt64(ct.C1, re, out.C1, lvl)
	if im != 0 {
		t0 := rq.GetPolyNoZero()
		t1 := rq.GetPolyNoZero()
		rq.MulByMonomialNTT(ct.C0, rq.N/2, t0, lvl)
		rq.MulByMonomialNTT(ct.C1, rq.N/2, t1, lvl)
		// Reuse the monomial scratch as the scaled term: s = im · t.
		rq.MulScalarInt64(t0, im, t0, lvl)
		rq.MulScalarInt64(t1, im, t1, lvl)
		rq.Add(out.C0, t0, out.C0, lvl)
		rq.Add(out.C1, t1, out.C1, lvl)
		rq.PutPoly(t1)
		rq.PutPoly(t0)
	}
	ev.observeMargin(out)
	return out
}

// MulByI multiplies every slot by the imaginary unit i — an exact, free
// operation realized as multiplication by the monomial X^(N/2).
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	rq := ev.ctx.RingQ
	out := ev.ctx.getCiphertextNoZero(ct.Level, ct.Scale)
	rq.MulByMonomialNTT(ct.C0, rq.N/2, out.C0, ct.Level)
	rq.MulByMonomialNTT(ct.C1, rq.N/2, out.C1, ct.Level)
	return out
}

// MulRelin returns ct0 ⊗ ct1 followed by relinearization (HMult, Eqs. 3-4).
// The output scale is the product of the input scales; callers normally
// Rescale afterwards, or call MulRelinRescale to get both in one division.
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext) *Ciphertext {
	return ev.mulRelin(ct0, ct1, 0)
}

// MulRelinRescale returns Rescale(MulRelin(ct0, ct1)) — the same level and
// the same tracked scale, exactly — from a single division: relinearization
// already divides by P, and here that ModDown divides by P·q_ℓ at once
// instead of handing a level-ℓ product to a second pass that divides by q_ℓ.
// Per product at nq = ℓ+1 active primes that is one 1-row iNTT in place of
// Rescale's 2·(nq−1) NTTs, 2 iNTTs, copy and two element-wise passes.
//
// The price is noise. The key-switch's base conversion is approximate — it
// may be off by a multiple u·P_ℓ, |u| ≤ (k_ℓ+1)/2 for the k_ℓ =
// Parameters.SpecialPrimes(ℓ) special primes the level divides by, which the
// unfused pair divides by q_ℓ along with everything else; fused, the overflow
// is a multiple of P_ℓ·q_ℓ and survives the division whole, so the result
// differs from the unfused one by up to (k_ℓ+1)/2 units per coefficient of
// each component (times the secret on C1). That is a few bits above the rescale
// rounding floor and far below the message at any usable scale, but it is
// not bit-identical to the two-step form, which stays available for callers
// that want the last bit. Panics on a level-0 operand, like Rescale.
func (ev *Evaluator) MulRelinRescale(ct0, ct1 *Ciphertext) *Ciphertext {
	return ev.mulRelin(ct0, ct1, 1)
}

// mulRelin is HMult with the last `drop` primes divided out alongside P_ℓ.
// The tensor terms d0, d1 are lifted into the extended basis (P_ℓ·d_i added
// to the key-switch accumulators over Q; it vanishes over P_ℓ) so one ModDown
// per component yields d_i + ks_i directly in the output — with drop = 0
// that is the same residue, word for word, as dividing first and adding d_i
// after: (P_ℓ·d + acc − conv)·P_ℓ⁻¹ ≡ d + (acc − conv)·P_ℓ⁻¹. The tensor's
// four products are one ring.Fold, so each operand row is read once per tile.
func (ev *Evaluator) mulRelin(ct0, ct1 *Ciphertext, drop int) *Ciphertext {
	if ev.rlk == nil {
		panic("ckks: MulRelin without relinearization key")
	}
	lvl := alignLevels(ct0, ct1)
	if drop > lvl {
		panic("ckks: cannot rescale a level-0 ciphertext")
	}
	ev.counters.Mult.Add(1)
	ev.counters.Rescale.Add(int64(drop))
	sp := ev.begin(spanMulRelin)
	rq := ev.ctx.RingQ

	d0 := rq.GetPolyNoZero()
	d1 := rq.GetPolyNoZero()
	d2 := rq.GetPolyNoZero()
	rq.Fold([]ring.FoldOp{
		{A: ct0.C0, B: ct1.C0, Acc: d0, First: true},
		{A: ct0.C0, B: ct1.C1, Acc: d1, First: true},
		{A: ct0.C1, B: ct1.C0, Acc: d1},
		{A: ct0.C1, B: ct1.C1, Acc: d2, First: true},
	}, lvl)

	scale := ct0.Scale * ct1.Scale
	for i := lvl; i > lvl-drop; i-- {
		scale /= float64(rq.Moduli[i].Q)
	}
	out := ev.ctx.getCiphertextNoZero(lvl-drop, scale)
	ev.keySwitchWith(lvl, drop, func(accQ0, accP0, accQ1, accP1 *ring.Poly) {
		ksp := ev.begin(spanKeySwitch)
		ksp.SetLevel(lvl)
		hd := ev.decompose(d2, lvl)
		ev.keySwitchMAC(1, hd, ev.rlk, accQ0, accP0, accQ1, accP1)
		hd.Release()
		ev.endSpan(&ksp, nil)
		// d_i enters the extended basis as the integer P_ℓ·d_i: zero over P_ℓ.
		sm := ev.ctx.special[lvl]
		rq.MulLimbScalarsAndAdd(d0, sm.pModQ, sm.pModQShoup, accQ0, lvl)
		rq.MulLimbScalarsAndAdd(d1, sm.pModQ, sm.pModQShoup, accQ1, lvl)
	}, out.C0, out.C1)
	rq.PutPoly(d2)
	rq.PutPoly(d1)
	rq.PutPoly(d0)
	ev.observeMargin(out)
	ev.endSpan(&sp, out)
	return out
}

// Square is MulRelin(ct, ct).
func (ev *Evaluator) Square(ct *Ciphertext) *Ciphertext { return ev.MulRelin(ct, ct) }

// Rescale divides ct by the current last prime and drops one level
// (HRescale, Section 2.4). The tracked scale is divided by that prime. It is
// the key-switch's division with no special primes: D = q_ℓ.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckks: cannot rescale a level-0 ciphertext")
	}
	ev.counters.Rescale.Add(1)
	sp := ev.begin(spanRescale)
	out := ev.ctx.copyCiphertextPooled(ct)
	ev.divRound(out.C0, nil, ct.Level, 1, 0, out.C0)
	ev.divRound(out.C1, nil, ct.Level, 1, 0, out.C1)
	out.Level = ct.Level - 1
	out.Scale = ct.Scale / float64(ev.ctx.RingQ.Moduli[ct.Level].Q)
	ev.observeMargin(out)
	ev.endSpan(&sp, out)
	return out
}

// Rotate returns HRot(ct, r): the message vector circularly shifted left by r
// slots (Eq. 5-6). Requires the rotation key for 5^r.
func (ev *Evaluator) Rotate(ct *Ciphertext, r int) *Ciphertext {
	g := ev.ctx.RingQ.GaloisElement(r)
	return ev.automorphism(ct, g)
}

// Conjugate returns the slot-wise complex conjugate of ct. Requires the
// conjugation key.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	return ev.automorphism(ct, ev.ctx.RingQ.GaloisConjugate())
}

func (ev *Evaluator) automorphism(ct *Ciphertext, g uint64) *Ciphertext {
	if g == 1 {
		return ev.ctx.copyCiphertextPooled(ct)
	}
	ev.counters.FullRot.Add(1)
	sp := ev.begin(spanRotate)
	swk := ev.rotationKey(g)
	out := ev.rotated(ct, g, func(accQ0, accP0, accQ1, accP1 *ring.Poly) {
		ksp := ev.begin(spanKeySwitch)
		ksp.SetLevel(ct.Level)
		hd := ev.decompose(ct.C1, ct.Level)
		ev.keySwitchMAC(g, hd, swk, accQ0, accP0, accQ1, accP1)
		hd.Release()
		ev.endSpan(&ksp, nil)
	})
	ev.endSpan(&sp, out)
	return out
}

// rotated returns (σ_g(ct.C0) + ks0, ks1), where (ks0, ks1) is the
// key-switch of σ_g(ct.C1) whose multiply-accumulate mac runs (see
// keySwitchWith): the tail every rotation shares, whether it decomposes
// ct.C1 itself or reuses a decomposition.
func (ev *Evaluator) rotated(ct *Ciphertext, g uint64, mac func(accQ0, accP0, accQ1, accP1 *ring.Poly)) *Ciphertext {
	rq := ev.ctx.RingQ
	lvl := ct.Level
	out := ev.ctx.getCiphertextNoZero(lvl, ct.Scale)
	ev.keySwitchWith(lvl, 0, mac, out.C0, out.C1)
	rb := rq.GetPolyNoZero()
	rq.AutomorphismNTT(ct.C0, g, rb, lvl)
	rq.Add(rb, out.C0, out.C0, lvl)
	rq.PutPoly(rb)
	return out
}

// keySwitchWith is every key-switch's pipeline of Fig. 3(a) in its two
// halves: mac — keySwitchMAC over a decomposition (hoisting.go), taken for
// this key-switch alone or shared by a rotation fan — overwrites four
// extended-basis accumulators borrowed from the pools, and one modDown per
// component divides them by P_ℓ (and the last `drop` primes) into out0 and
// out1 (the subtraction-scaling-addition the paper fuses as SSA).
func (ev *Evaluator) keySwitchWith(lvl, drop int, mac func(accQ0, accP0, accQ1, accP1 *ring.Poly), out0, out1 *ring.Poly) {
	rq, rp := ev.ctx.RingQ, ev.ctx.RingP
	accQ0, accP0 := rq.GetPolyNoZero(), rp.GetPolyNoZero()
	accQ1, accP1 := rq.GetPolyNoZero(), rp.GetPolyNoZero()
	mac(accQ0, accP0, accQ1, accP1)
	ev.modDown(accQ0, accP0, lvl, drop, out0)
	ev.modDown(accQ1, accP1, lvl, drop, out1)
	rp.PutPoly(accP1)
	rq.PutPoly(accQ1)
	rp.PutPoly(accP0)
	rq.PutPoly(accQ0)
}

// modDown divides the extended polynomial (accQ, accP) — rows [0..lvl] over Q
// and the level's k_ℓ rows over P_ℓ, NTT domain — by P_ℓ·q_{lvl-drop+1}···q_lvl
// into rows [0..lvl-drop] of out (see divRound). drop = 0 is the 1/P step of
// Eq. 4; drop = 1 is that step and the HRescale that would follow it, as one
// division (see MulRelinRescale).
func (ev *Evaluator) modDown(accQ, accP *ring.Poly, lvl, drop int, out *ring.Poly) {
	ev.counters.ModDown.Add(1)
	ev.divRound(accQ, accP, lvl, drop, ev.ctx.special[lvl].k, out)
}

// divRound divides (accQ, accP) — rows [0..lvl] over Q and k rows over
// P_k = p_0···p_{k−1}, NTT domain — by D = P_k·q_{lvl-drop+1}···q_lvl with
// rounding, into rows [0..lvl-drop] of out. The residues modulo D's own
// primes — the p-rows and the dropped q-rows — go back to the coefficient
// domain (in place: both inputs are consumed), one BConv carries them onto
// the surviving q-basis, one NTT brings that back, and a fused
// subtract-scale by D^-1 finishes; the centered BConv is what makes the
// quotient rounded. That last pass is ring.SubMulLimbScalars with cached
// Shoup companions, limb × coefficient-block sharded, so it stays parallel
// at low levels. out may alias accQ. With k = 0 (accP unused) it is HRescale.
func (ev *Evaluator) divRound(accQ, accP *ring.Poly, lvl, drop, k int, out *ring.Poly) {
	ctx := ev.ctx
	rq := ctx.RingQ
	keep := lvl - drop
	tab := ctx.modDownTables(lvl, drop, k)
	var src [][]uint64
	if k > 0 {
		ctx.RingP.INTT(accP, k-1)
		src = accP.Coeffs[:k:k]
	}
	for i := keep + 1; i <= lvl; i++ {
		rq.INTTRow(accQ.Coeffs[i], i)
		src = append(src, accQ.Coeffs[i])
	}
	tmp := rq.GetPolyNoZero()
	tab.ext.Convert(src, tmp.Coeffs[:keep+1])
	rq.NTT(tmp, keep)
	rq.SubMulLimbScalars(accQ, tmp, tab.inv, tab.invShoup, out, keep)
	rq.PutPoly(tmp)
}
