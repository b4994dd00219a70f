package main

import (
	"math"
	"math/rand"
	"time"

	"bts/internal/ckks"
)

// nnLayerWL is nnlayer_dnum4_n14: one encrypted neural-network layer at
// LogN=14, L=11, dnum=4 on a 55/45-bit chain, the op mix of the paper's
// ResNet and HELR tables — a banded 127-diagonal LinearTransform and its
// rescale, a cubic activation (Square, MulRelin, two rescales), and a
// rotate-and-add reduction over all 13 strides with full Rotate. No
// bootstrap, under a tenth of the time in ciphertext multiplications: the
// key-switch layer used through four slices, hoisted MACs and deferred
// ModDowns instead of the single-slice relinearisation boot leans on.
type nnLayerWL struct {
	lit      ckks.ParametersLiteral
	halfBand int

	*party
	rots   []int
	rtks   *ckks.RotationKeySet
	eval   *ckks.Evaluator
	diags  map[int][]complex128
	lt     *ckks.LinearTransform
	stride []int

	layer, ltT, act, rotsum []time.Duration
	rotOne                  []time.Duration
	cold                    time.Duration
	ops                     ckks.OpCounters
	sumBits                 float64
}

func newNNLayer(cfg config) *nnLayerWL {
	logQ := []int{55}
	for i := 0; i < 11; i++ {
		logQ = append(logQ, 45)
	}
	w := &nnLayerWL{halfBand: 63,
		lit: ckks.ParametersLiteral{LogN: 14, LogQ: logQ, LogP: 55, Dnum: 4, LogScale: 45, H: 192}}
	if cfg.short {
		w.lit.LogN, w.lit.LogQ, w.lit.H, w.halfBand = 10, logQ[:5], 16, 3
	}
	return w
}

// levelsPerLayer is what one layer consumes: the transform's rescale and the
// activation's two.
const levelsPerLayer = 3

func (w *nnLayerWL) setup(r *run) error {
	root := r.rec.begin("bench.setup", 0)
	defer r.rec.end(root)
	var err error
	if w.party, err = newParty(r, root, w.lit, r.cfg.seed*10+2); err != nil {
		return err
	}
	// Banded weights: diagonal k holds M[j][(j+k) mod slots], drawn so a
	// row of the product is O(1).
	rng := r.rng(10)
	slots := w.params.Slots()
	w.diags = map[int][]complex128{}
	amp := 1 / math.Sqrt(float64(2*w.halfBand+1))
	for k := -w.halfBand; k <= w.halfBand; k++ {
		d := make([]complex128, slots)
		for j := range d {
			d[j] = complex(amp*(2*rng.Float64()-1), 0)
		}
		w.diags[k] = d
	}
	top := w.params.MaxLevel()
	r.timed(root, "ckks.NewLinearTransform", func() {
		// Encoded at the top prime's size, so the rescale that follows
		// returns the ciphertext to the default scale.
		w.lt, err = ckks.NewLinearTransform(w.encoder, w.diags, top, float64(w.params.Q[top]))
	})
	if err != nil {
		return err
	}
	for s := 1; s < slots; s <<= 1 {
		w.stride = append(w.stride, s)
	}
	seen := map[int]bool{}
	for _, rot := range append(append([]int{}, w.stride...), w.lt.Rotations()...) {
		if !seen[rot] {
			seen[rot] = true
			w.rots = append(w.rots, rot)
		}
	}
	r.timed(root, "ckks.GenRotationKeys", func() {
		w.rtks = w.kg.GenRotationKeys(w.sk, w.rots, false)
	})
	w.eval = ckks.NewEvaluator(w.ctx, w.encoder, w.rlk, w.rtks)
	return nil
}

func (w *nnLayerWL) close() { w.party.close() }

// checkEvery is how often a layer's output is decrypted and compared.
const checkEvery = 5

// layerMinBits is what the activation's output and the layer's — the sum of
// it over every slot — must agree with the float model to.
const layerMinBits = 10

func (w *nnLayerWL) measure(r *run, d time.Duration) error {
	rng := r.rng(11)
	if err := w.iteration(r, rng, 0, true); err != nil {
		return err
	}
	r.warmUps = 1
	plain, traced, err := r.loop(d, func(i int) error { return w.iteration(r, rng, i, false) })
	if err != nil {
		return err
	}
	r.overhead(plain, traced)

	layer := median(w.layer)
	r.sample("layer_s", "s", w.layer)
	r.set("op_ms", "ms", millis(layer))
	r.set("tmult_a_slot_us", "us", amortizedUs(layer, levelsPerLayer, w.params.Slots()))
	r.set("layer_s", "s", layer.Seconds())
	r.set("ckks.lt_ms", "ms", millis(median(w.ltT)))
	r.set("ckks.act_mul_ms", "ms", millis(median(w.act)))
	r.set("ckks.rotsum_ms", "ms", millis(median(w.rotsum)))
	r.set("ckks.rotsum_rot_ms", "ms", millis(median(w.rotOne)))
	r.sample("ckks.rotsum_rot_ms", "ms", w.rotOne)
	r.set("ckks.cold_over_warm", "ratio", w.cold.Seconds()/layer.Seconds())
	r.set("ckks.layer_sum_precision_bits", "bits", w.sumBits)
	setKeyAndOpCounts(r, w.ops, w.rlk, w.rtks)
	return nil
}

// iteration is one layer on a fresh input: transform, activation,
// reduction. Every checkEvery-th output is decrypted and compared.
func (w *nnLayerWL) iteration(r *run, rng *rand.Rand, i int, cold bool) error {
	it := r.rec.begin("bench.iteration", 0)
	defer r.rec.end(it)
	top := w.params.MaxLevel()
	ev, ctx := w.eval, w.ctx

	in := r.rec.begin("bench.input", it)
	vals := randomSlots(rng, w.params.Slots(), 1)
	x, err := w.encrypt(r, in, vals, top)
	r.rec.end(in)
	if err != nil {
		return err
	}

	unit := r.rec.begin("bench.unit", it)
	before := ev.Counters()
	start := time.Now()

	var y, t *ckks.Ciphertext
	tLT := r.timed(unit, "ckks.LinearTransform", func() { t = ev.LinearTransform(x, w.lt) })
	tLT += r.timed(unit, "ckks.Rescale", func() { y = ev.Rescale(t) })
	ctx.PutCiphertext(t)

	var y2, y3 *ckks.Ciphertext
	tAct := r.timed(unit, "ckks.Square", func() { t = ev.Square(y) })
	tAct += r.timed(unit, "ckks.Rescale", func() { y2 = ev.Rescale(t) })
	ctx.PutCiphertext(t)
	tAct += r.timed(unit, "ckks.MulRelin", func() { t = ev.MulRelin(y2, y) })
	tAct += r.timed(unit, "ckks.Rescale", func() { y3 = ev.Rescale(t) })
	ctx.PutCiphertext(t)
	ctx.PutCiphertext(y2)
	ctx.PutCiphertext(y)

	// The reduction adds into its own ciphertext, so the activation's
	// output survives for the check below.
	acc := y3
	var tSum time.Duration
	for _, s := range w.stride {
		var rot, sum *ckks.Ciphertext
		tr := r.timed(unit, "ckks.Rotate", func() { rot = ev.Rotate(acc, s) })
		tSum += tr + r.timed(unit, "ckks.Add", func() { sum = ev.Add(acc, rot) })
		ctx.PutCiphertext(rot)
		if acc != y3 {
			ctx.PutCiphertext(acc)
		}
		acc = sum
		if !cold {
			w.rotOne = append(w.rotOne, tr)
		}
	}
	el := time.Since(start)
	w.ops = ev.Counters().Sub(before)
	r.rec.end(unit)

	r.attempt(1)
	if acc.Level != top-levelsPerLayer {
		r.fail("layer output at level %d, want %d", acc.Level, top-levelsPerLayer)
	}
	if cold || i%checkEvery == 0 {
		chk := r.rec.begin("bench.check", it)
		act, sum := w.model(vals)
		// precision_bits is read off the activation's output, one
		// independent error per slot; after the reduction every slot holds
		// the same sum and its error is a single draw.
		r.check("activation output", w.decrypt(r, chk, y3), act, layerMinBits, true)
		w.sumBits = r.check("layer output", w.decrypt(r, chk, acc), sum, layerMinBits, false)
		r.rec.end(chk)
	}
	ctx.PutCiphertext(acc)
	ctx.PutCiphertext(y3)

	if cold {
		w.cold = el
		return nil
	}
	w.layer = append(w.layer, el)
	w.ltT = append(w.ltT, tLT)
	w.act = append(w.act, tAct)
	w.rotsum = append(w.rotsum, tSum)
	return nil
}

// model is the layer on plain slots: act = (M·x)³ slot by slot, and the
// layer's output, every slot holding the sum of all of act.
func (w *nnLayerWL) model(x []complex128) (act, out []complex128) {
	n := len(x)
	act = make([]complex128, n)
	var sum complex128
	for j := 0; j < n; j++ {
		var y complex128
		for k := -w.halfBand; k <= w.halfBand; k++ { // fixed order: the model repeats bit for bit
			y += w.diags[k][j] * x[((j+k)%n+n)%n]
		}
		act[j] = y * y * y
		sum += act[j]
	}
	out = make([]complex128, n)
	for j := range out {
		out[j] = sum
	}
	return act, out
}

func (w *nnLayerWL) layers(r *run) error {
	root := r.rec.begin("bench.layers", 0)
	defer r.rec.end(root)
	return commonLayers(r, root, w.party, w.eval, w.rtks, w.stride, w.params.MaxLevel())
}
