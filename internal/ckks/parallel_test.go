package ckks

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"
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

	// Close releases the private engine and reverts to the shared pool; the
	// context stays usable and still matches serial. (Both encryptor RNGs
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

// TestBootstrapParallelEquivalence is the end-to-end check of the issue's
// acceptance criteria: a full small-N bootstrap — starting from a level-0
// ciphertext, the regime where coefficient-block sharding carries the
// pipeline's tail — must be bit-identical to the serial run with workers > 1
// alone and with coefficient-block sharding forced on (a block size far
// below the default floor so sharding engages at the test's small N). The
// 8-worker rows exercise a pool wider than the limb count, where the fused
// radix-4 row path and the sharded per-stage radix-2 path mix within one
// bootstrap.
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
		{4, 0},  // limb-parallel, default block floor
		{4, 64}, // limb × coefficient-block sharded
		{8, 0},  // wide pool: rows oversubscribe limbs at low levels
		{8, 64}, // wide pool with sharding forced on — the full staged schedule
	} {
		s, bt := bootSetup(t)
		s.ctx.SetWorkers(cfg.workers)
		if cfg.block > 0 {
			s.ctx.SetBlockSize(cfg.block)
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
			out = append(out, prod, fused)
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
			p.ctx.SetBlockSize(block)
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
