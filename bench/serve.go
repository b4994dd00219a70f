package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"bts/internal/ckks"
	"bts/internal/serve"
)

// serveWL is serve_mixed: an in-process daemon on loopback at the `small`
// preset (LogN=12, L=7, dnum=3) with a durable store, metrics on and job
// tracing off, driven by a closed loop of two tenants — tenants wait for
// their replies, so closed is the shape real use has. The seeded job mix
// puts the two wire forms and the wire-heavy and register-resident classes
// side by side:
//
//	40% dag_fan      register form: rotation fan → add tree → pmul → rescale, nothing downloaded
//	20% dag_mulchain register form: three mult+rescale over resident registers
//	40% slot_rmra    slot form: rotate → mul → rescale → add, two ciphertexts up, one down
//
// wire, serve and telemetry do most of the work here and ckks little, so a
// change to the codec, the scheduler or either job form shows on its own
// class and cannot hide behind the other.
type serveWL struct {
	lit ckks.ParametersLiteral

	srv      *serve.Server
	httpSrv  *http.Server
	served   chan struct{}
	base     string
	storeDir string
	tenants  []*tenant

	classMix serve.OpMix // op mix of one job of each class
}

const serveClients = 2

type jobClass int

const (
	dagFan jobClass = iota
	dagMulChain
	slotRMRA
	numClasses
)

var classNames = [numClasses]string{"dag_fan", "dag_mulchain", "slot_rmra"}

// classLevels is the multiplicative levels one job of each class consumes.
var classLevels = [numClasses]int{1, 3, 1}

// deck deals job classes in seeded order. Every ten jobs hold exactly four
// dag_fan, two dag_mulchain and four slot_rmra, so the seed sets the order
// jobs meet each other in, not how much work a run contains.
type deck struct {
	rng   *rand.Rand
	cards [10]jobClass
	next  int
}

func newDeck(rng *rand.Rand) *deck {
	d := &deck{rng: rng, cards: [10]jobClass{dagFan, dagFan, dagFan, dagFan, dagMulChain, dagMulChain,
		slotRMRA, slotRMRA, slotRMRA, slotRMRA}}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() jobClass {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

var fanRots = []int{1, 2, 4, 8}

// tenant is one closed-loop client: its own keys, session and resident
// input register, and a small pool of pre-encrypted upload pairs so the
// client's CPU (it shares the host with the daemon) goes to the wire, not
// to encryption.
type tenant struct {
	*party
	name string
	rtks *ckks.RotationKeySet
	api  *serve.Client
	x    []complex128
	ups  []upload

	lat    [numClasses][]time.Duration
	plain  []time.Duration
	traced []time.Duration
	jobs   [numClasses]int
}

type upload struct {
	u, v   []complex128
	cu, cv *ckks.Ciphertext
}

func newServe(cfg config) *serveWL {
	w := &serveWL{lit: ckks.ParametersLiteral{
		LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40, 40, 40}, LogP: 51, Dnum: 3, LogScale: 40, H: 64}}
	if cfg.short {
		w.lit.LogN = 10
	}
	return w
}

func (w *serveWL) setup(r *run) error {
	root := r.rec.begin("bench.setup", 0)
	defer r.rec.end(root)
	params, err := ckks.NewParameters(w.lit)
	if err != nil {
		return err
	}
	if w.storeDir, err = os.MkdirTemp(outDir, "store-"); err != nil {
		return err
	}
	r.timed(root, "serve.New", func() {
		w.srv, err = serve.New(serve.Config{Params: params, Workers: engineWorkers, StoreDir: w.storeDir})
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.httpSrv.Serve(ln) // returns ErrServerClosed from close()
	}()
	w.base = "http://" + ln.Addr().String()

	for i := 0; i < serveClients; i++ {
		t := &tenant{name: fmt.Sprintf("tenant%d", i)}
		if t.party, err = newParty(r, root, w.lit, r.cfg.seed*10+4+int64(i)*100); err != nil {
			return err
		}
		w.tenants = append(w.tenants, t)
		r.timed(root, "ckks.GenRotationKeys", func() {
			t.rtks = t.kg.GenRotationKeys(t.sk, fanRots, false)
		})
		t.api = serve.NewClient(w.base, t.ctx)
		r.timed(root, "serve.OpenSession", func() { err = t.api.OpenSession(t.name, t.rlk, t.rtks) })
		if err != nil {
			return fmt.Errorf("open session: %w", err)
		}
		rng := r.rng(30 + int64(i))
		top := t.params.MaxLevel()
		t.x = randomSlots(rng, t.params.Slots(), 0.7)
		cx, err := t.encrypt(r, root, t.x, top)
		if err != nil {
			return err
		}
		r.timed(root, "serve.DoDAG.upload", func() {
			_, err = t.api.DoDAG(context.Background(), t.name, []string{"$x"}, nil, nil, cx)
		})
		if err != nil {
			return fmt.Errorf("upload register: %w", err)
		}
		for k := 0; k < 4; k++ {
			up := upload{u: randomSlots(rng, t.params.Slots(), 0.7), v: randomSlots(rng, t.params.Slots(), 0.7)}
			if up.cu, err = t.encrypt(r, root, up.u, top); err != nil {
				return err
			}
			if up.cv, err = t.encrypt(r, root, up.v, top); err != nil {
				return err
			}
			t.ups = append(t.ups, up)
		}
	}
	r.clients = serveClients
	return nil
}

func (w *serveWL) close() {
	if w.httpSrv != nil {
		_ = w.httpSrv.Close()
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
	for _, t := range w.tenants {
		t.party.close()
	}
	if w.storeDir != "" {
		_ = os.RemoveAll(w.storeDir)
	}
}

// job runs one job of class c for tenant t and returns the client-observed
// latency. With verify it downloads the result (the register classes
// otherwise leave theirs server-side) and compares it with the float model.
func (t *tenant) job(r *run, parent int, c jobClass, n int, verify bool) time.Duration {
	ctx := context.Background()
	var out *ckks.Ciphertext
	var want []complex128
	var err error
	slots := len(t.x)
	var d time.Duration
	switch c {
	case dagFan:
		ops := []serve.Op{}
		for _, by := range fanRots {
			ops = append(ops, serve.Op{Kind: serve.OpRotate, Ra: "$x", Out: fmt.Sprintf("$r%d", by), By: by})
		}
		ops = append(ops,
			serve.Op{Kind: serve.OpAdd, Ra: "$r1", Rb: "$r2", Out: "$a"},
			serve.Op{Kind: serve.OpAdd, Ra: "$r4", Rb: "$r8", Out: "$b"},
			serve.Op{Kind: serve.OpAdd, Ra: "$a", Rb: "$b", Out: "$s"},
			serve.Op{Kind: serve.OpMulPlain, Ra: "$s", Out: "$p", Vals: []float64{0.25}},
			serve.Op{Kind: serve.OpRescale, Ra: "$p", Out: "$f"},
		)
		var outputs []string
		if verify {
			outputs = []string{"$f"}
		}
		var outs []*ckks.Ciphertext
		d = r.timed(parent, "serve.DoDAG.dag_fan", func() { outs, err = t.api.DoDAG(ctx, t.name, nil, ops, outputs) })
		if verify && err == nil {
			out = outs[0]
			want = make([]complex128, slots)
			for i := range want {
				for _, by := range fanRots {
					want[i] += t.x[(i+by)%slots]
				}
				want[i] *= 0.25
			}
		}
	case dagMulChain:
		ops := []serve.Op{}
		prev := "$x"
		for k := 1; k <= 3; k++ {
			q, m := fmt.Sprintf("$q%d", k), fmt.Sprintf("$m%d", k)
			ops = append(ops,
				serve.Op{Kind: serve.OpMul, Ra: prev, Rb: prev, Out: q},
				serve.Op{Kind: serve.OpRescale, Ra: q, Out: m})
			prev = m
		}
		var outputs []string
		if verify {
			outputs = []string{prev}
		}
		var outs []*ckks.Ciphertext
		d = r.timed(parent, "serve.DoDAG.dag_mulchain", func() { outs, err = t.api.DoDAG(ctx, t.name, nil, ops, outputs) })
		if verify && err == nil {
			out = outs[0]
			want = make([]complex128, slots)
			for i, x := range t.x {
				x2 := x * x
				x4 := x2 * x2
				want[i] = x4 * x4
			}
		}
	case slotRMRA:
		up := t.ups[n%len(t.ups)]
		ops := []serve.Op{
			{Kind: serve.OpRotate, A: 0, By: 1},
			{Kind: serve.OpMul, A: 2, B: 1},
			{Kind: serve.OpRescale, A: 3},
			{Kind: serve.OpAdd, A: 4, B: 4},
		}
		d = r.timed(parent, "serve.Do.slot_rmra", func() { out, err = t.api.Do(t.name, ops, up.cu, up.cv) })
		if verify && err == nil {
			want = make([]complex128, slots)
			for i := range want {
				want[i] = 2 * up.u[(i+1)%slots] * up.v[i]
			}
		}
	}
	r.attempt(1)
	if err != nil {
		r.fail("%s job of %s: %v", classNames[c], t.name, err)
		return d
	}
	if verify {
		r.check(classNames[c]+" result", t.decrypt(r, parent, out), want, opMinBits, true)
	}
	return d
}

// verifyEvery is how often, per class and tenant, a job's result is
// downloaded and compared.
const verifyEvery = 16

// traceSlices is how many stretches a traced run's window is cut into, the
// recorder on in every other one; the two tenants share the recorder, so it
// alternates on time, not on iterations.
const traceSlices = 40

func (w *serveWL) measure(r *run, d time.Duration) error {
	// Cold: tenant 0 runs one job of each class alone — the first jobs pay
	// key rehydration, encoding-cache misses and pool growth, and the
	// session's op mix over exactly these three jobs is the ⓒ count.
	before, err := w.sessionMix(w.tenants[0])
	if err != nil {
		return err
	}
	var cold time.Duration
	for c := jobClass(0); c < numClasses; c++ {
		for _, t := range w.tenants {
			dj := t.job(r, 0, c, 0, true)
			if t == w.tenants[0] {
				cold += dj
			}
		}
	}
	after, err := w.sessionMix(w.tenants[0])
	if err != nil {
		return err
	}
	w.classMix = subMix(after, before)
	r.warmUps = int(numClasses)

	for _, t := range w.tenants {
		t.api.ResetWireBytes()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, t := range w.tenants {
		wg.Add(1)
		go func(i int, t *tenant) {
			defer wg.Done()
			jobs := newDeck(r.rng(40 + int64(i)))
			for n := 1; ; n++ {
				// Past the window a tenant runs on only until it has a job on
				// each side of the recorder switch.
				el := time.Since(start)
				missing := len(t.plain) == 0 || (r.cfg.trace && len(t.traced) == 0)
				if el >= d && !missing {
					break
				}
				on := r.cfg.trace && (traceSlices*el/d)%2 == 0
				if el >= d {
					on = r.cfg.trace && len(t.traced) == 0
				}
				r.rec.enable(on)
				c := jobs.draw()
				t.jobs[c]++
				unit := r.rec.begin("bench.unit", 0)
				dj := t.job(r, unit, c, n, t.jobs[c]%verifyEvery == 0)
				r.rec.end(unit)
				t.lat[c] = append(t.lat[c], dj)
				if on {
					t.traced = append(t.traced, dj)
				} else {
					t.plain = append(t.plain, dj)
				}
			}
		}(i, t)
	}
	wg.Wait()
	window := time.Since(start)
	r.rec.enable(r.cfg.trace)

	var all, plain, traced []time.Duration
	var levels, jobs int
	var wireIn, wireOut int64
	for _, t := range w.tenants {
		for c := range t.lat {
			all = append(all, t.lat[c]...)
			levels += classLevels[c] * len(t.lat[c])
		}
		plain, traced = append(plain, t.plain...), append(traced, t.traced...)
		in, out := t.api.WireBytes()
		wireIn, wireOut = wireIn+in, wireOut+out
	}
	jobs = len(all)
	r.overhead(plain, traced)
	xs := durationsToFloat(all)
	ms := func(p float64) float64 { return percentile(xs, p) / 1e6 }
	r.sample("job_ms", "ms", all)
	r.set("op_ms", "ms", millis(median(all)))
	r.set("tmult_a_slot_us", "us", amortizedUs(window, levels, w.tenants[0].params.Slots()))
	r.set("jobs_per_s", "1/s", float64(jobs)/window.Seconds())
	r.set("job_p50_ms", "ms", millis(median(all)))
	if hasPercentile(jobs, 90) {
		r.set("job_p90_ms", "ms", ms(90))
	}
	if hasPercentile(jobs, 99) {
		r.set("serve.job_p99_ms", "ms", ms(99))
	}
	r.set("serve.job_max_ms", "ms", ms(100))
	for c, name := range classNames {
		var ds []time.Duration
		for _, t := range w.tenants {
			ds = append(ds, t.lat[c]...)
		}
		r.sample("serve."+name+"_ms", "ms", ds)
		r.set("serve."+name+"_p50_ms", "ms", millis(median(ds)))
	}
	r.set("serve.jobs", "count", float64(jobs))
	r.set("ckks.cold_over_warm", "ratio", cold.Seconds()/(float64(numClasses)*median(all).Seconds()))
	r.set("wire.bytes_per_op_in", "B", float64(wireIn)/float64(jobs))
	r.set("wire.bytes_per_op_out", "B", float64(wireOut)/float64(jobs))

	m, t0 := w.classMix, w.tenants[0]
	setKeyAndOpCounts(r, ckks.OpCounters{Mult: m.Mult, FullRot: m.FullRot, HoistedRot: m.HoistedRot,
		Decompose: m.Decompose, ModDown: m.ModDown, Rescale: m.Rescale}, t0.rlk, t0.rtks)
	return w.serverStats(r)
}

func subMix(a, b serve.OpMix) serve.OpMix {
	return serve.OpMix{Mult: a.Mult - b.Mult, FullRot: a.FullRot - b.FullRot, HoistedRot: a.HoistedRot - b.HoistedRot,
		Decompose: a.Decompose - b.Decompose, ModDown: a.ModDown - b.ModDown, Rescale: a.Rescale - b.Rescale}
}

func (w *serveWL) sessionMix(t *tenant) (serve.OpMix, error) {
	st, err := t.api.Stats()
	if err != nil {
		return serve.OpMix{}, fmt.Errorf("stats: %w", err)
	}
	for _, ss := range st.Sessions {
		if ss.Session == t.name {
			return ss.OpMix, nil
		}
	}
	return serve.OpMix{}, fmt.Errorf("stats: session %s missing", t.name)
}

// serverStats reads what the daemon says about the same jobs: its own
// latency median (/v1/stats), and from /metrics the scheduler's batch sizes
// and linger waits, per-op latencies, and the engine and pool counters.
func (w *serveWL) serverStats(r *run) error {
	st, err := w.tenants[0].api.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var p50s []float64
	var regBytes int64
	var errs uint64
	for _, ss := range st.Sessions {
		p50s = append(p50s, ss.P50Ms)
		regBytes += ss.RegisterBytes
		errs += ss.Errors
	}
	server := medianOf(p50s)
	client := r.get("job_p50_ms")
	r.set("serve.server_p50_ms", "ms", server)
	r.set("serve.transport_ms", "ms", client-server)
	r.set("serve.transport_share", "ratio", ratio(client-server, client))
	r.set("serve.register_bytes", "B", float64(regBytes))
	r.set("serve.job_errors", "count", float64(errs))

	text, err := httpGet(w.base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	pm := parseProm(text)
	if sum, count := pm.sum("bts_batch_size_sum", nil), pm.sum("bts_batch_size_count", nil); count > 0 {
		r.set("serve.batch_size_mean", "jobs", sum/count)
	}
	r.set("serve.linger_wait_ms_p50", "ms", pm.quantile("bts_linger_wait_seconds", nil, 0.5)*1e3)
	for _, op := range []string{"mul", "rot", "rescale"} {
		r.set("serve.op_p50_ms."+op, "ms", pm.quantile("bts_op_latency_seconds", map[string]string{"op": op}, 0.5)*1e3)
	}
	r.set("serve.hoist_shared", "count", pm.sum("bts_hoist_shared_decompositions_total", nil))
	r.set("serve.encoding_cache_hits", "count", pm.sum("bts_encoding_cache_hits_total", nil))
	r.set("ring.pool_miss_ratio", "ratio", ratio(pm.sum("bts_pool_misses_total", nil), pm.sum("bts_pool_gets_total", nil)))
	r.set("ring.engine_steal_ratio", "ratio", ratio(pm.sum("bts_engine_stolen_tasks_total", nil), pm.sum("bts_engine_tasks_total", nil)))
	return nil
}

func (w *serveWL) layers(r *run) error {
	root := r.rec.begin("bench.layers", 0)
	defer r.rec.end(root)
	// Session open, end to end: serialise and upload a key set, decode and
	// persist it server-side.
	t := w.tenants[0]
	open := r.sampleOp(root, "serve.OpenSession", func() {
		if err := t.api.OpenSession("probe", t.rlk, t.rtks); err != nil {
			r.fail("open session: %v", err)
		}
	})
	r.set("serve.open_session_ms", "ms", millis(median(open)))

	// The server-side pool and steal ratios of the timed section are already
	// set from /metrics; keep them over the client-side ones commonLayers
	// measures on its own context.
	pool, steal := r.get("ring.pool_miss_ratio"), r.get("ring.engine_steal_ratio")
	ev := ckks.NewEvaluator(t.ctx, t.encoder, t.rlk, t.rtks)
	if err := commonLayers(r, root, t.party, ev, t.rtks, fanRots, t.params.MaxLevel()); err != nil {
		return err
	}
	r.set("ring.pool_miss_ratio", "ratio", pool)
	r.set("ring.engine_steal_ratio", "ratio", steal)
	return nil
}
