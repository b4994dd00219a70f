package ckks

import (
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// equalCT reports whether two ciphertexts (possibly from different contexts
// over identical prime chains) are bit-identical.
func equalCT(t *testing.T, ctx *Context, a, b *Ciphertext) {
	t.Helper()
	if a.Level != b.Level {
		t.Fatalf("levels differ: %d vs %d", a.Level, b.Level)
	}
	if a.Scale != b.Scale {
		t.Fatalf("scales differ: %g vs %g", a.Scale, b.Scale)
	}
	if !ctx.RingQ.Equal(a.C0, b.C0, a.Level) || !ctx.RingQ.Equal(a.C1, b.C1, a.Level) {
		t.Fatal("ciphertext residues differ between serial and parallel execution")
	}
}

// parallelPair builds two identical setups over the same (deterministically
// generated) prime chain: one serial, one with workers > 1.
func parallelPair(t *testing.T, workers int) (serial, parallel *testSetup) {
	t.Helper()
	serial = newTestSetup(t, 2, []int{1, 2, 4})
	serial.ctx.SetWorkers(0)
	parallel = newTestSetup(t, 2, []int{1, 2, 4})
	parallel.ctx.SetWorkers(workers)
	return serial, parallel
}

// TestEvaluatorParallelEquivalence runs a representative homomorphic circuit
// on a serial and a 4-worker context and demands bit-identical ciphertexts at
// every step: the engine must be a pure throughput dial.
func TestEvaluatorParallelEquivalence(t *testing.T) {
	s, p := parallelPair(t, 4)
	if got := p.ctx.Workers(); got != 4 {
		t.Fatalf("parallel context reports %d workers, want 4", got)
	}
	if got := s.ctx.Workers(); got != 0 {
		t.Fatalf("serial context reports %d workers, want 0", got)
	}

	rng := rand.New(rand.NewSource(77))
	v0 := randomComplex(rng, s.params.Slots(), 1)
	v1 := randomComplex(rng, s.params.Slots(), 1)

	run := func(ts *testSetup) []*Ciphertext {
		lvl := ts.params.MaxLevel()
		pt0, _ := ts.encoder.Encode(v0, lvl, ts.params.Scale)
		pt1, _ := ts.encoder.Encode(v1, lvl, ts.params.Scale)
		ct0, _ := ts.enc.EncryptNew(pt0)
		ct1, _ := ts.enc.EncryptNew(pt1)
		prod := ts.eval.Rescale(ts.eval.MulRelin(ct0, ct1))
		rot := ts.eval.Rotate(prod, 2)
		conj := ts.eval.Conjugate(rot)
		sum := ts.eval.Add(rot, conj)
		cmul := ts.eval.Rescale(ts.eval.MulConst(sum, complex(0.5, -0.25), ts.params.Scale))
		cadd := ts.eval.AddConst(cmul, complex(-1.25, 0.5))
		sq := ts.eval.Rescale(ts.eval.Square(cadd))
		fused := ts.eval.MulRelinRescale(cadd, sq)
		return []*Ciphertext{ct0, ct1, prod, rot, conj, sum, cmul, cadd, sq, fused}
	}
	outS := run(s)
	outP := run(p)
	for i := range outS {
		equalCT(t, s.ctx, outS[i], outP[i])
	}

	// Close detaches the engine; the context stays usable, now serial, and
	// still matches the serial one. (Both encryptor RNGs
	// advanced identically above, so second runs are comparable to each
	// other, not to the first.)
	p.ctx.Close()
	outS2 := run(s)
	outP2 := run(p)
	for i := range outS2 {
		equalCT(t, s.ctx, outS2[i], outP2[i])
	}
}

// TestLinearTransformParallelEquivalence covers the BSGS path (and with it
// the AddInPlace accumulators) under both engines.
func TestLinearTransformParallelEquivalence(t *testing.T) {
	s, p := parallelPair(t, 3)
	rng := rand.New(rand.NewSource(78))
	n := s.params.Slots()
	v := randomComplex(rng, n, 1)
	diags := matrixFromFunc(n, func(r, c int) complex128 {
		return complex(float64(1+(r+2*c)%5)/5, float64(r%3)/3)
	}, 0)

	run := func(ts *testSetup) *Ciphertext {
		lvl := ts.params.MaxLevel()
		lt, err := NewLinearTransform(ts.encoder, diags, lvl, ts.params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		rtks := ts.kg.GenRotationKeys(ts.sk, lt.Rotations(), true)
		ev := NewEvaluator(ts.ctx, ts.encoder, ts.rlk, rtks)
		pt, _ := ts.encoder.Encode(v, lvl, ts.params.Scale)
		ct, _ := ts.enc.EncryptNew(pt)
		return ev.LinearTransform(ct, lt)
	}
	equalCT(t, s.ctx, run(s), run(p))
}

// TestDroppedContextReleasesWorkers pins a context's engine lifetime:
// nothing needs closing, and once a context is dropped the workers of every
// engine it ran on stop. The context swaps its engine three times and runs a
// MulRelin (which also fills its cached extenders) on each; after
// collections the goroutine count must fall back to where it was before.
func TestDroppedContextReleasesWorkers(t *testing.T) {
	base := settledGoroutines()
	func() {
		s := newTestSetup(t, 2, nil)
		pt, err := s.encoder.Encode(randomComplex(rand.New(rand.NewSource(5)), 8, 0.5), s.params.MaxLevel(), s.params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4} {
			s.ctx.SetWorkers(workers)
			s.eval.MulRelin(ct, ct)
		}
		if n := runtime.NumGoroutine(); n < base+4 {
			t.Fatalf("%d goroutines on a 4-worker context, want at least %d", n, base+4)
		}
	}()
	waitForGoroutines(t, base)
}

// settledGoroutines collects until the goroutine count stops changing, so
// workers of contexts dropped by earlier tests do not leave with the test's
// own, and returns that count.
func settledGoroutines() int {
	n := -1
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// waitForGoroutines collects until at most want goroutines run, failing
// after five seconds.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still run after the context was dropped, want at most %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBootstrapParallelEquivalence is the end-to-end check that the engine is
// a pure throughput dial: a full small-N bootstrap — starting from a level-0
// ciphertext, the regime where coefficient-block sharding carries the
// pipeline's tail — must be bit-identical to the serial run with workers > 1
// alone and with coefficient-block sharding forced on (a block size far
// below the default floor so sharding engages at the test's small N). The
// 1- and 2-worker rows are EvalMod's fork on a serial engine and on the
// smallest pool that runs its two sines at once; the 8-worker rows exercise
// a pool wider than the limb count at low levels.
func TestBootstrapParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap equivalence skipped with -short")
	}
	rng := rand.New(rand.NewSource(79))
	var ref *Ciphertext
	var refCtx *Context
	values := randomComplex(rng, 1<<9, 0.7)
	for _, cfg := range []struct{ workers, block int }{
		{0, 0},  // serial reference
		{1, 0},  // serial engine: EvalMod's fork runs its sines inline, in order
		{2, 0},  // two workers: the sines run side by side
		{4, 0},  // limb-parallel, default block floor
		{4, 64}, // limb × coefficient-block sharded
		{8, 0},  // wide pool: rows oversubscribe limbs at low levels
		{8, 64}, // wide pool with sharding forced on
	} {
		s, bt := bootSetup(t)
		s.ctx.SetWorkers(cfg.workers)
		if cfg.block > 0 {
			s.ctx.RingQ.Exec().SetBlockSize(cfg.block)
		}
		pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		out, err := bt.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refCtx = out, s.ctx
			continue
		}
		equalCT(t, refCtx, ref, out)
	}
}

// TestShardedEvaluatorEquivalence sweeps the evaluator's primitive ops at
// every level of the chain — including the low levels where coefficient
// blocks carry all the parallelism — across worker counts and block sizes,
// demanding bit-identical ciphertexts vs the serial engine at each step.
// Rescale and ModRaise (at level 0) ride the key-switch's division and BConv.
func TestShardedEvaluatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	probe := newTestSetup(t, 2, nil)
	v0 := randomComplex(rng, probe.params.Slots(), 1)
	v1 := randomComplex(rng, probe.params.Slots(), 1)

	// run exercises every primitive at one level: encode/encrypt at the top,
	// drop to the target level, then rotate/conjugate/mul/rescale/const ops.
	run := func(ts *testSetup, lvl int) []*Ciphertext {
		top := ts.params.MaxLevel()
		pt0, _ := ts.encoder.Encode(v0, top, ts.params.Scale)
		pt1, _ := ts.encoder.Encode(v1, top, ts.params.Scale)
		ct0, _ := ts.enc.EncryptNew(pt0)
		ct1, _ := ts.enc.EncryptNew(pt1)
		ct0.DropLevel(lvl)
		ct1.DropLevel(lvl)
		out := []*Ciphertext{ct0, ct1}
		rot := ts.eval.Rotate(ct0, 2)
		conj := ts.eval.Conjugate(rot)
		sum := ts.eval.Add(conj, ct1)
		cadd := ts.eval.AddConst(sum, complex(-0.75, 0.25))
		out = append(out, rot, conj, sum, cadd)
		if lvl >= 1 {
			prod := ts.eval.Rescale(ts.eval.MulRelin(cadd, ct1))
			fused := ts.eval.MulRelinRescale(cadd, ct1)
			out = append(out, ts.eval.Rescale(cadd), prod, fused)
		} else {
			out = append(out, ts.eval.modRaise(cadd))
		}
		return out
	}

	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for _, block := range []int{16, 33, probe.params.N()} {
			// Fresh serial/parallel pairs per configuration: the encryptor
			// RNG is stateful, so both sides must issue the same encrypt
			// sequence from the same deterministic seed.
			serial := newTestSetup(t, 2, []int{1, 2, 4})
			serial.ctx.SetWorkers(0)
			p := newTestSetup(t, 2, []int{1, 2, 4})
			p.ctx.SetWorkers(workers)
			p.ctx.RingQ.Exec().SetBlockSize(block)
			for lvl := 0; lvl <= serial.params.MaxLevel(); lvl++ {
				outS := run(serial, lvl)
				outP := run(p, lvl)
				for i := range outS {
					equalCT(t, serial.ctx, outS[i], outP[i])
				}
			}
			p.ctx.Close()
		}
	}
}

// --- Benchmarks: serial vs NumCPU workers on the key-switching hot path ----

func benchWorkersName(workers int) string {
	if workers == 0 {
		return "workers=serial"
	}
	return "workers=" + strconv.Itoa(workers)
}

func BenchmarkHMultRelinWorkers(b *testing.B) {
	for _, workers := range []int{0, runtime.NumCPU()} {
		s, ct0, ct1 := benchSetup(b)
		s.ctx.SetWorkers(workers)
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.eval.MulRelin(ct0, ct1)
			}
		})
	}
}

func BenchmarkBootstrapWorkers(b *testing.B) {
	if testing.Short() {
		b.Skip("bootstrapping bench skipped with -short")
	}
	for _, workers := range []int{0, runtime.NumCPU()} {
		s, bt := bootSetup(b)
		s.ctx.SetWorkers(workers)
		pt, _ := s.encoder.Encode([]complex128{0.25, -0.5}, 0, s.params.Scale)
		ct, _ := s.enc.EncryptNew(pt)
		b.Run(benchWorkersName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bt.Bootstrap(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forkPanic is the value the fork tests panic with; recovering the same
// pointer proves the fork re-raised the branch's own value.
type forkPanic struct{ branch int }

// catchPanic runs f and returns the value it panicked with (nil if none).
func catchPanic(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestBothForkContract pins the fork-join helper EvalMod's two sines run
// through. On a two-worker engine branch 1 runs on a pool worker, where an
// unrecovered panic would kill the process: the panic must come back on the
// caller's goroutine, with the same value, only after branch 0 has returned,
// and the engine must still run later work. A panic in branch 0 likewise
// waits for branch 1. A branch error is the fork's error (branch 0's first),
// and a serial engine runs the branches inline, in order.
func TestBothForkContract(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	s.ctx.SetWorkers(2)
	defer s.ctx.Close()

	// concurrent returns a pair of branches in which the one that does not
	// panic first waits until the other has started (so the two really run
	// side by side, one of them on a worker), then outlasts its panic.
	concurrent := func(panicking int, val any, done *atomic.Bool) [2]func(*Evaluator) error {
		started := make(chan struct{})
		var fs [2]func(*Evaluator) error
		fs[panicking] = func(*Evaluator) error {
			close(started)
			panic(val)
		}
		fs[1-panicking] = func(*Evaluator) error {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Error("the branches did not run at the same time on a two-worker engine")
			}
			time.Sleep(20 * time.Millisecond)
			done.Store(true)
			return nil
		}
		return fs
	}
	for _, panicking := range []int{1, 0} {
		val := &forkPanic{panicking}
		var done atomic.Bool
		fs := concurrent(panicking, val, &done)
		got := catchPanic(func() { _ = s.eval.both(fs[0], fs[1]) })
		if got != val {
			t.Fatalf("branch %d panicked with %v; the caller recovered %v", panicking, val, got)
		}
		if !done.Load() {
			t.Fatalf("branch %d's panic reached the caller before branch %d returned", panicking, 1-panicking)
		}
	}

	// The engine survives: a later Run covers every index.
	var hits [16]atomic.Bool
	s.ctx.engine.Run(len(hits), func(i int) { hits[i].Store(true) })
	for i := range hits {
		if !hits[i].Load() {
			t.Fatalf("Run after a branch panic skipped index %d", i)
		}
	}

	err0, err1 := errors.New("branch 0"), errors.New("branch 1")
	ret := func(err error) func(*Evaluator) error { return func(*Evaluator) error { return err } }
	for _, tc := range []struct{ e0, e1, want error }{
		{nil, nil, nil}, {err0, nil, err0}, {nil, err1, err1}, {err0, err1, err0},
	} {
		if got := s.eval.both(ret(tc.e0), ret(tc.e1)); got != tc.want {
			t.Fatalf("branches returned (%v, %v); the fork returned %v, want %v", tc.e0, tc.e1, got, tc.want)
		}
	}

	s.ctx.SetWorkers(0)
	var order []int
	_ = s.eval.both(
		func(*Evaluator) error { order = append(order, 0); return nil },
		func(*Evaluator) error { order = append(order, 1); return nil })
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("serial engine ran the branches as %v, want [0 1]", order)
	}
}

// TestBootstrapReturnsBranchError checks that an error raised inside
// EvalMod's fork comes back as BootstrapWith's error: an all-zero sine trims
// to the empty polynomial, which EvalChebyshev rejects in both branches.
func TestBootstrapReturnsBranchError(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	s.ctx.SetWorkers(2)
	defer s.ctx.Close()
	bt.sineCoeffs = make([]float64, len(bt.sineCoeffs))
	pt, _ := s.encoder.Encode([]complex128{0.1}, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	_, err := bt.Bootstrap(ct)
	if err == nil || !strings.Contains(err.Error(), "empty Chebyshev polynomial") {
		t.Fatalf("got %v, want EvalChebyshev's empty-polynomial error", err)
	}
}
