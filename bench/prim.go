package main

import (
	"fmt"
	"time"

	"bts/internal/ckks"
)

// primWL is prim_dnum3_n17: the evaluator's primitives at the paper's ring
// degree — LogN=17, L=8, dnum=3 on a 60/50-bit chain, H=192. One unit of
// work is a MulRelin+Rescale and a Rotate at the top level. The kernels are
// the ones boot and nnlayer run, on rows of 1 MiB instead of 32–128 KiB: a
// change that wins while the working set sits in cache and loses once it
// streams from memory shows here and nowhere else. It also supplies
// T_mult(ℓ) at the paper's N.
type primWL struct {
	lit ckks.ParametersLiteral

	*party
	rots []int
	rtks *ckks.RotationKeySet
	eval *ckks.Evaluator
	a, b *ckks.Ciphertext
	va   []complex128
	vb   []complex128

	hmult, hrot, pair []time.Duration
	cold              time.Duration
	ops               ckks.OpCounters
}

func newPrim(cfg config) *primWL {
	w := &primWL{lit: ckks.ParametersLiteral{
		LogN: 17, LogQ: []int{60, 50, 50, 50, 50, 50, 50, 50, 50}, LogP: 60, Dnum: 3, LogScale: 50, H: 192}}
	if cfg.short {
		w.lit.LogN = 10
	}
	return w
}

func (w *primWL) setup(r *run) error {
	root := r.rec.begin("bench.setup", 0)
	defer r.rec.end(root)
	var err error
	if w.party, err = newParty(r, root, w.lit, r.cfg.seed*10+3); err != nil {
		return err
	}
	// The timed loop rotates by 1 only; the traced run's hoisted fan adds
	// the other amounts itself (and reports what a key costs).
	w.rots = []int{1}
	r.timed(root, "ckks.GenRotationKeys", func() {
		w.rtks = w.kg.GenRotationKeys(w.sk, w.rots, false)
	})
	w.eval = ckks.NewEvaluator(w.ctx, w.encoder, w.rlk, w.rtks)
	rng := r.rng(20)
	top := w.params.MaxLevel()
	w.va, w.vb = randomSlots(rng, w.params.Slots(), 0.7), randomSlots(rng, w.params.Slots(), 0.7)
	if w.a, err = w.encrypt(r, root, w.va, top); err != nil {
		return err
	}
	w.b, err = w.encrypt(r, root, w.vb, top)
	return err
}

func (w *primWL) close() { w.party.close() }

func (w *primWL) measure(r *run, d time.Duration) error {
	if err := w.pairOnce(r, true); err != nil {
		return err
	}
	r.warmUps = 1
	plain, traced, err := r.loop(d, func(int) error { return w.pairOnce(r, false) })
	if err != nil {
		return err
	}
	r.overhead(plain, traced)

	r.sample("hmult_ms", "ms", w.hmult)
	r.sample("hrot_ms", "ms", w.hrot)
	r.set("op_ms", "ms", millis(median(w.pair)))
	r.set("tmult_a_slot_us", "us", amortizedUs(median(w.hmult), 1, w.params.Slots()))
	r.set("hmult_ms", "ms", millis(median(w.hmult)))
	r.set("hrot_ms", "ms", millis(median(w.hrot)))
	r.set("ckks.cold_over_warm", "ratio", w.cold.Seconds()/median(w.pair).Seconds())
	setKeyAndOpCounts(r, w.ops, w.rlk, w.rtks)
	return nil
}

// pairOnce is one unit of work. The cold pair's outputs are the ones
// decrypted and compared: one output per op at this level (the other
// levels are checked by the traced run).
func (w *primWL) pairOnce(r *run, cold bool) error {
	unit := r.rec.begin("bench.unit", 0)
	ev, ctx := w.eval, w.ctx
	before := ev.Counters()
	var prod, res, rot *ckks.Ciphertext
	tm := r.timed(unit, "ckks.MulRelin", func() { prod = ev.MulRelin(w.a, w.b) })
	tm += r.timed(unit, "ckks.Rescale", func() { res = ev.Rescale(prod) })
	tr := r.timed(unit, "ckks.Rotate", func() { rot = ev.Rotate(w.a, w.rots[0]) })
	w.ops = ev.Counters().Sub(before)
	r.rec.end(unit)

	r.attempt(2)
	if res.Level != w.a.Level-1 || rot.Level != w.a.Level {
		r.fail("levels after MulRelin+Rescale / Rotate: %d / %d from %d", res.Level, rot.Level, w.a.Level)
	}
	if cold {
		chk := r.rec.begin("bench.check", 0)
		want := make([]complex128, len(w.va))
		for i := range want {
			want[i] = w.va[i] * w.vb[i]
		}
		r.check("MulRelin+Rescale", w.decrypt(r, chk, res), want, opMinBits, true)
		r.check("Rotate", w.decrypt(r, chk, rot), rotated(w.va, w.rots[0]), opMinBits, true)
		r.rec.end(chk)
		w.cold = tm + tr
	} else {
		w.hmult = append(w.hmult, tm)
		w.hrot = append(w.hrot, tr)
		w.pair = append(w.pair, tm+tr)
	}
	ctx.PutCiphertext(prod)
	ctx.PutCiphertext(res)
	ctx.PutCiphertext(rot)
	return nil
}

// layers adds the levels between the top and 0: T_mult(ℓ) and T_rot(ℓ) down
// the chain at the paper's N. The hoisted fan needs three more rotation
// keys, generated here.
func (w *primWL) layers(r *run) error {
	root := r.rec.begin("bench.layers", 0)
	defer r.rec.end(root)
	fan := []int{1, 2, 3, 4}
	r.timed(root, "ckks.GenRotationKeys", func() {
		w.rtks = w.kg.GenRotationKeys(w.sk, fan, false)
	})
	w.eval = ckks.NewEvaluator(w.ctx, w.encoder, w.rlk, w.rtks)
	top := w.params.MaxLevel()
	for _, level := range []int{top / 2, 1} {
		if level <= 0 || level >= top {
			continue
		}
		if err := evaluatorOps(r, root, w.party, w.eval, fan, level, fmt.Sprintf(".l%d", level)); err != nil {
			return err
		}
	}
	return commonLayers(r, root, w.party, w.eval, w.rtks, fan, top)
}
