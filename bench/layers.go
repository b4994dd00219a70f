package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bts/internal/arch"
	"bts/internal/baseline"
	"bts/internal/ckks"
	"bts/internal/eval"
	"bts/internal/mod"
	"bts/internal/params"
	"bts/internal/ring"
	"bts/internal/sim"
	"bts/internal/telemetry"
	"bts/internal/wire"
	simwl "bts/internal/workload"
)

// This file holds the traced-only measurements every workload shares: the
// evaluator ops one at a time, and shape-matched micro-loops over the public
// kernels of the layers below, at the workload's own ring degree and limb
// counts. "gbps" figures are computed bytes — array sizes times passes, cache
// misses ignored — over measured time.

// sampleBudget is how long one per-op or per-kernel timing loop runs.
func (r *run) sampleBudget() time.Duration {
	if r.cfg.short {
		return time.Millisecond
	}
	return 300 * time.Millisecond
}

// sampleFor times f after one untimed warm-up call until the sample budget
// has elapsed, at least three times (the smoke test settles for one cold
// sample).
func (r *run) sampleFor(f func()) []time.Duration {
	atLeast := 3
	if r.cfg.short {
		atLeast = 1
	} else {
		f()
	}
	var ds []time.Duration
	start := time.Now()
	for len(ds) < atLeast || time.Since(start) < r.sampleBudget() {
		t := time.Now()
		f()
		ds = append(ds, time.Since(t))
	}
	return ds
}

// sampleOp is sampleFor with each call of f under a span.
func (r *run) sampleOp(parent int, name string, f func()) []time.Duration {
	return r.sampleFor(func() { r.timed(parent, name, f) })
}

// commonLayers measures, for the party's parameter set: evaluator ops at
// topLevel and level 0 (each output checked against the float model, the
// hoisted rotations bit-identical to Rotate), key generation and codec
// costs, the ring kernels at the chain's full height, and the layers that
// do not depend on the workload (mod, telemetry, sim).
func commonLayers(r *run, parent int, p *party, ev *ckks.Evaluator, rtks *ckks.RotationKeySet, rots []int, topLevel int) error {
	var st telemetry.ContextStats
	p.ctx.SetStats(&st)
	for _, level := range []int{topLevel, 0} {
		suffix := ""
		if level == 0 {
			suffix = ".l0"
		}
		if err := evaluatorOps(r, parent, p, ev, rots, level, suffix); err != nil {
			p.ctx.SetStats(nil)
			return err
		}
	}
	p.ctx.SetStats(nil)
	gets := st.PoolQ.PolyGets.Load() + st.PoolQ.RowGets.Load() + st.PoolP.PolyGets.Load() + st.PoolP.RowGets.Load()
	misses := st.PoolQ.PolyMisses.Load() + st.PoolQ.RowMisses.Load() + st.PoolP.PolyMisses.Load() + st.PoolP.RowMisses.Load()
	r.set("ring.pool_miss_ratio", "ratio", ratio(float64(misses), float64(gets)))
	r.set("ring.engine_steal_ratio", "ratio", ratio(float64(st.Engine.StolenTasks.Load()), float64(st.Engine.Tasks.Load())))

	clientOps(r, parent, p, topLevel)
	if err := wireCodec(r, parent, p, rtks, topLevel); err != nil {
		return err
	}
	modKernel(r, parent, p.params.Q[0])
	simModel(r, parent)
	telemetryOverhead(r, parent, p.ctx)
	// Last: the stream arrays are the largest allocation of the run.
	ringKernels(r, parent, p.ctx)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// evaluatorOps times MulRelin+Rescale and Rotate at one level, checking one
// output of each, and reports them as ckks.hmult_ms/ckks.hrot_ms + suffix.
// The workload's working level is unsuffixed and also gets Rescale,
// DecomposeNTT and a hoisted rotation fan; level 0 — the only level where
// coefficient-block sharding runs at two workers — is ".l0".
func evaluatorOps(r *run, parent int, p *party, ev *ckks.Evaluator, rots []int, level int, suffix string) error {
	sp := r.rec.begin(fmt.Sprintf("bench.ops.l%d", level), parent)
	defer r.rec.end(sp)
	rng := r.rng(100 + int64(level))
	slots := p.params.Slots()
	va, vb := randomSlots(rng, slots, 0.7), randomSlots(rng, slots, 0.7)
	// At level 0 no rescale follows the product, so both operand scales
	// must fit in q_0 together: encode them at a little under its root.
	scale := p.params.Scale
	if level == 0 {
		scale = math.Exp2(math.Floor(math.Log2(float64(p.params.Q[0]))/2) - 3)
	}
	a, err := p.encryptAt(r, sp, va, level, scale)
	if err != nil {
		return err
	}
	b, err := p.encryptAt(r, sp, vb, level, scale)
	if err != nil {
		return err
	}
	ctx := p.ctx

	// HMult: MulRelin, plus the Rescale that follows it wherever a level is
	// left to drop.
	var out *ckks.Ciphertext
	hmult := r.sampleFor(func() {
		if out != nil {
			ctx.PutCiphertext(out)
		}
		r.timed(sp, "ckks.MulRelin", func() { out = ev.MulRelin(a, b) })
		if level > 0 {
			prod := out
			r.timed(sp, "ckks.Rescale", func() { out = ev.Rescale(prod) })
			ctx.PutCiphertext(prod)
		}
	})
	want := make([]complex128, slots)
	for i := range want {
		want[i] = va[i] * vb[i]
	}
	r.attempt(1)
	r.check(fmt.Sprintf("MulRelin at level %d", level), p.decrypt(r, sp, out), want, opMinBits, false)
	ctx.PutCiphertext(out)
	r.sample("ckks.hmult_ms"+suffix, "ms", hmult)
	r.set("ckks.hmult_ms"+suffix, "ms", millis(median(hmult)))

	rot := rots[0]
	out = nil
	hrot := r.sampleFor(func() {
		if out != nil {
			ctx.PutCiphertext(out)
		}
		r.timed(sp, "ckks.Rotate", func() { out = ev.Rotate(a, rot) })
	})
	r.attempt(1)
	r.check(fmt.Sprintf("Rotate at level %d", level), p.decrypt(r, sp, out), rotated(va, rot), opMinBits, false)
	r.sample("ckks.hrot_ms"+suffix, "ms", hrot)
	r.set("ckks.hrot_ms"+suffix, "ms", millis(median(hrot)))
	reference := out

	if suffix != "" {
		ctx.PutCiphertext(reference)
		return nil
	}

	if level > 0 {
		prod := ev.MulRelin(a, b)
		resc := r.sampleOp(sp, "ckks.Rescale", func() { ctx.PutCiphertext(ev.Rescale(prod)) })
		ctx.PutCiphertext(prod)
		r.set("ckks.hrescale_ms", "ms", millis(median(resc)))
	}

	dec := r.sampleOp(sp, "ckks.DecomposeNTT", func() { ev.DecomposeNTT(a).Release() })
	r.set("ckks.decompose_ms", "ms", millis(median(dec)))

	// A hoisted fan over up to four rotation amounts, decomposition
	// included; every output must equal the plain Rotate bit for bit.
	fan := rots
	if len(fan) > 4 {
		fan = fan[:4]
	}
	var outs map[int]*ckks.Ciphertext
	hoisted := r.sampleFor(func() {
		for _, ct := range outs {
			ctx.PutCiphertext(ct)
		}
		r.timed(sp, "ckks.RotateHoisted", func() { outs = ev.RotateHoisted(a, fan) })
	})
	r.attempt(1)
	if !sameCiphertext(outs[rot], reference) {
		r.fail("RotateHoisted(%d) at level %d is not bit-identical to Rotate", rot, level)
	}
	for _, ct := range outs {
		ctx.PutCiphertext(ct)
	}
	ctx.PutCiphertext(reference)
	r.set("ckks.rot_hoisted_ms", "ms", millis(median(hoisted))/float64(len(fan)))
	r.set("ckks.rot_hoisted_fan", "count", float64(len(fan)))
	return nil
}

// opMinBits is what a single evaluator op on values below 1 must keep.
const opMinBits = 10

// clientOps times what the key owner does: one switching-key generation,
// encode, encrypt, decrypt+decode.
func clientOps(r *run, parent int, p *party, level int) {
	sp := r.rec.begin("bench.client", parent)
	defer r.rec.end(sp)
	// A rotation amount no workload uses, so the key is generated afresh.
	unused := p.params.Slots()/2 + 3
	kg := r.sampleOp(sp, "ckks.GenRotationKeys", func() { p.kg.GenRotationKeys(p.sk, []int{unused}, false) })
	r.set("ckks.keygen_swk_ms", "ms", millis(median(kg)))

	vals := randomSlots(r.rng(200), p.params.Slots(), 0.7)
	var pt *ckks.Plaintext
	enc := r.sampleOp(sp, "ckks.Encode", func() { pt, _ = p.encoder.Encode(vals, level, p.params.Scale) })
	r.set("ckks.encode_ms", "ms", millis(median(enc)))
	var ct *ckks.Ciphertext
	encr := r.sampleOp(sp, "ckks.Encrypt", func() { ct, _ = p.enc.EncryptNew(pt) })
	r.set("ckks.encrypt_ms", "ms", millis(median(encr)))
	dd := r.sampleFor(func() { p.decrypt(r, sp, ct) })
	r.set("ckks.decrypt_decode_ms", "ms", millis(median(dd)))
}

// ringKernels times the public ring kernels on the context's q-chain at its
// full height (and the NTT alone at level 0, where it runs coefficient-block
// sharded), BConv at the ModUp shape of the top level, and a stream triad as
// the bandwidth ceiling of the same run.
func ringKernels(r *run, parent int, ctx *ckks.Context) {
	sp := r.rec.begin("bench.kernels", parent)
	defer r.rec.end(sp)
	rq := ctx.RingQ
	level := rq.MaxLevel()
	limbs := float64(level + 1)
	n := float64(rq.N)
	rng := r.rng(300)
	a, b, out := rq.NewPolyLevel(level), rq.NewPolyLevel(level), rq.NewPolyLevel(level)
	rq.SampleUniform(rng, a, level)
	rq.SampleUniform(rng, b, level)

	kernel := func(name string, f func()) float64 {
		return median(r.sampleOp(sp, name, f)).Seconds()
	}

	// Transforms: ns per radix-2-equivalent butterfly, and the algorithmic
	// stream rate (one load and one store per coefficient per stage).
	bflies := limbs * n / 2 * float64(rq.LogN)
	xformBytes := 16 * n * limbs * float64(rq.LogN)
	tNTT := kernel("ring.NTT", func() { rq.NTT(a, level) })
	tINTT := kernel("ring.INTT", func() { rq.INTT(a, level) })
	r.set("ring.ntt_ns_per_bfly", "ns", tNTT*1e9/bflies)
	r.set("ring.intt_ns_per_bfly", "ns", tINTT*1e9/bflies)
	r.set("ring.ntt_gbps", "GB/s", xformBytes/tNTT/1e9)
	r.set("ring.intt_gbps", "GB/s", xformBytes/tINTT/1e9)
	tShard := kernel("ring.NTT.l0", func() { rq.NTT(a, 0) })
	r.set("ring.ntt_sharded_ns_per_bfly", "ns", tShard*1e9/(n/2*float64(rq.LogN)))

	tMul := kernel("ring.MulCoeffs", func() { rq.MulCoeffs(a, b, out, level) })
	r.set("ring.mulcoeffs_gbps", "GB/s", 24*n*limbs/tMul/1e9)

	// Lazy 128-bit MAC as the hoisted transforms use it: macTerms gathered
	// products into one accumulator, then one reduction. Per coefficient
	// and term: operand, index and key word read, two accumulator words
	// read and written.
	const macTerms = 8
	g := rq.GaloisElement(1)
	table := rq.AutoIndexNTT(g)
	tMAC := kernel("ring.MulGatherAndAddLazy+ReduceAcc", func() {
		acc := rq.GetAcc(level)
		for k := 0; k < macTerms; k++ {
			rq.MulGatherAndAddLazy(a, table, b, acc, level)
		}
		rq.ReduceAcc(acc, out, level)
		rq.PutAcc(acc)
	})
	r.set("ring.mac128_gbps", "GB/s", (macTerms*56+24)*n*limbs/tMAC/1e9)

	tAuto := kernel("ring.AutomorphismNTT", func() { rq.AutomorphismNTT(a, g, out, level) })
	r.set("ring.automorph_gbps", "GB/s", 24*n*limbs/tAuto/1e9)

	// BConv at the ModUp shape: the first decomposition group's limbs to
	// every other active limb plus the special chain.
	alpha := ctx.Params.Alpha()
	if alpha > level+1 {
		alpha = level + 1
	}
	from := rq.Moduli[:alpha]
	to := append(append([]*ring.Modulus{}, rq.Moduli[alpha:]...), ctx.RingP.Moduli...)
	if be, err := ring.NewBasisExtender(from, to); err == nil {
		be.SetEngine(rq.Exec())
		in := a.Coeffs[:alpha]
		dst := make([][]uint64, len(to))
		for i := range dst {
			dst[i] = make([]uint64, rq.N)
		}
		tConv := kernel("ring.BasisExtender.Convert", func() { be.Convert(in, dst) })
		r.set("ring.bconv_ns_per_out_coeff", "ns", tConv*1e9/(float64(len(to))*n))
		r.set("ring.bconv_from_limbs", "count", float64(len(from)))
		r.set("ring.bconv_to_limbs", "count", float64(len(to)))
	}

	streamTriad(r, sp, rq.Exec())
}

// maxStreamBytes caps one stream array; the cache sizes some virtual hosts
// advertise would otherwise ask for several GiB, and first-touching them
// would cost more than every other kernel loop together.
const maxStreamBytes = 512 << 20

// streamTriad measures copy and triad bandwidth over arrays four times the
// last-level cache (capped at maxStreamBytes), split over the engine's
// workers exactly as the ring kernels are. It is the roofline denominator
// for the gbps figures above; both sizes are reported.
func streamTriad(r *run, parent int, e *ring.Engine) {
	llc := llcBytes()
	size := 4 * llc
	if size > maxStreamBytes {
		size = maxStreamBytes
	}
	if r.cfg.short {
		size = 1 << 20
	}
	words := int(size / 8)
	x, y, z := make([]uint64, words), make([]uint64, words), make([]uint64, words)
	e.RunBlocks(1, words, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i], y[i], z[i] = 0, uint64(i), uint64(i)*3
		}
	})
	time1 := func(name string, f func(lo, hi int)) float64 {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			d := r.timed(parent, name, func() { e.RunBlocks(1, words, func(_, lo, hi int) { f(lo, hi) }) })
			best = math.Min(best, d.Seconds())
		}
		return best
	}
	tCopy := time1("ring.stream.copy", func(lo, hi int) { copy(x[lo:hi], y[lo:hi]) })
	tTriad := time1("ring.stream.triad", func(lo, hi int) {
		xs, ys, zs := x[lo:hi], y[lo:hi], z[lo:hi]
		for i := range xs {
			xs[i] = ys[i] + 3*zs[i]
		}
	})
	r.set("ring.stream_copy_gbps", "GB/s", 16*float64(words)/tCopy/1e9)
	r.set("ring.stream_gbps", "GB/s", 24*float64(words)/tTriad/1e9)
	r.set("ring.stream_array_mib", "MiB", float64(size)/(1<<20))
	r.set("host.llc_mib", "MiB", float64(llc)/(1<<20))
	runtime.KeepAlive(x)
}

// telemetryOverhead times an NTT/iNTT/MulCoeffs loop with the engine and
// pool counters attached and detached, alternating, and reports the ratio of
// the medians.
func telemetryOverhead(r *run, parent int, ctx *ckks.Context) {
	sp := r.rec.begin("bench.telemetry", parent)
	defer r.rec.end(sp)
	rq := ctx.RingQ
	level := rq.MaxLevel()
	a, b, out := rq.NewPolyLevel(level), rq.NewPolyLevel(level), rq.NewPolyLevel(level)
	rq.SampleUniform(r.rng(400), a, level)
	rq.SampleUniform(r.rng(401), b, level)
	loop := func() {
		rq.NTT(a, level)
		rq.MulCoeffs(a, b, out, level)
		rq.INTT(a, level)
	}
	var st telemetry.ContextStats
	var on, off []time.Duration
	loop()
	start := time.Now()
	for i := 0; i < 10 || time.Since(start) < 2*r.sampleBudget(); i++ {
		if i%2 == 0 {
			ctx.SetStats(&st)
			on = append(on, r.timed(sp, "telemetry.attached", loop))
		} else {
			ctx.SetStats(nil)
			off = append(off, r.timed(sp, "telemetry.detached", loop))
		}
	}
	ctx.SetStats(nil)
	r.set("telemetry.overhead_ratio", "ratio", median(on).Seconds()/median(off).Seconds())
}

// wireCodec times the codec on one ciphertext at the working level and on a
// one-key rotation-key set of the workload's shape.
func wireCodec(r *run, parent int, p *party, rtks *ckks.RotationKeySet, level int) error {
	sp := r.rec.begin("bench.wire", parent)
	defer r.rec.end(sp)
	codec := wire.NewCodec(p.ctx)
	ct, err := p.encrypt(r, sp, randomSlots(r.rng(500), p.params.Slots(), 0.7), level)
	if err != nil {
		return err
	}
	var blob []byte
	m := r.sampleOp(sp, "wire.MarshalCiphertext", func() { blob, err = codec.MarshalCiphertext(ct) })
	if err != nil {
		return err
	}
	var back *ckks.Ciphertext
	u := r.sampleOp(sp, "wire.UnmarshalCiphertext", func() { back, err = codec.UnmarshalCiphertext(blob) })
	if err != nil {
		return err
	}
	r.attempt(1)
	if !sameCiphertext(ct, back) {
		r.fail("ciphertext did not survive the wire codec")
	}
	mb := float64(len(blob)) / 1e6
	r.set("wire.ct_marshal_mbps", "MB/s", mb/median(m).Seconds())
	r.set("wire.ct_unmarshal_mbps", "MB/s", mb/median(u).Seconds())

	one := &ckks.RotationKeySet{Keys: map[uint64]*ckks.SwitchingKey{}}
	for g, k := range rtks.Keys {
		one.Keys[g] = k
		break
	}
	m = r.sampleOp(sp, "wire.MarshalRotationKeySet", func() { blob, err = codec.MarshalRotationKeySet(one) })
	if err != nil {
		return err
	}
	u = r.sampleOp(sp, "wire.UnmarshalRotationKeySet", func() { _, err = codec.UnmarshalRotationKeySet(blob) })
	if err != nil {
		return err
	}
	mb = float64(len(blob)) / 1e6
	r.set("wire.rtks_marshal_mbps", "MB/s", mb/median(m).Seconds())
	r.set("wire.rtks_unmarshal_mbps", "MB/s", mb/median(u).Seconds())
	return nil
}

var redcSink uint64

// modKernel times the fused Montgomery multiply on a dependent chain, so the
// figure is the latency every ring kernel's inner loop is built from.
func modKernel(r *run, parent int, q uint64) {
	mr := mod.NewMontgomery(q)
	const chain = 1 << 22
	ds := r.sampleOp(parent, "mod.Montgomery.Mul", func() {
		x, y := mr.MForm(12345), mr.MForm(67891)
		for i := 0; i < chain; i++ {
			x = mr.Mul(x, y)
		}
		redcSink = x
	})
	r.set("mod.redc_ns", "ns", median(ds).Seconds()*1e9/chain)
}

// simModel runs the accelerator model: Eq. 8 on the three paper instances
// and INS-1's bootstrap (simulated time, which must repeat exactly), its
// error against the figures the paper reports, and the host time of
// regenerating every table and figure.
func simModel(r *run, parent int) {
	sp := r.rec.begin("bench.sim", parent)
	defer r.rec.end(sp)
	shape := simwl.PaperBootstrapShape()
	paper := baseline.Paper()
	errSum := 0.0
	for i, inst := range params.PaperInstances() {
		var t float64
		r.timed(sp, "sim.AmortizedMultPerSlot", func() {
			t, _ = sim.New(arch.Default(), inst).AmortizedMultPerSlot(shape)
		})
		r.set(fmt.Sprintf("sim.tmult_a_slot_ns.ins%d", i+1), "sim_ns", t*1e9)
		errSum += math.Abs(t*1e9-paper.TmultASlotNs[i]) / paper.TmultASlotNs[i]
	}
	r.set("sim.err_vs_paper_pct", "%", 100*errSum/3)
	var bootTime float64
	r.timed(sp, "sim.RunTrace", func() {
		bootTime = sim.New(arch.Default(), params.INS1).RunTrace(simwl.BootstrapTrace(params.INS1, shape)).Time
	})
	r.set("sim.boot_ms.ins1", "sim_ms", bootTime*1e3)

	host := r.sampleOp(sp, "sim.eval.all", func() {
		eval.Fig6()
		if r.cfg.short {
			return // the smoke test only needs the model to run
		}
		eval.Table1()
		eval.Fig2()
		eval.Fig3b()
		eval.Table4()
		eval.Fig7a()
		eval.Fig7b()
		eval.Fig8()
		eval.Fig9()
		eval.Fig10()
		eval.Table5()
		eval.Table6()
	})
	r.set("sim.host_ms_eval_all", "ms", millis(median(host)))
}
