package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bts/internal/mod"
)

// TestRunBlocksCoversAllCells checks that RunBlocks visits every (row,
// coefficient) cell exactly once at several (workers, blockSize, rows, n)
// configurations, including ragged partitions from odd block sizes.
func TestRunBlocksCoversAllCells(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, blockSize := range []int{1, 3, 16, 64, 1 << 20} {
			e := NewEngine(workers)
			e.SetBlockSize(blockSize)
			for _, shape := range []struct{ rows, n int }{{1, 257}, {3, 64}, {5, 100}, {8, 8}} {
				hits := make([][]int64, shape.rows)
				for i := range hits {
					hits[i] = make([]int64, shape.n)
				}
				e.RunBlocks(shape.rows, shape.n, func(i, lo, hi int) {
					if lo < 0 || hi > shape.n || lo > hi {
						t.Errorf("workers=%d block=%d rows=%d n=%d: bad range [%d,%d)",
							workers, blockSize, shape.rows, shape.n, lo, hi)
						return
					}
					for j := lo; j < hi; j++ {
						atomic.AddInt64(&hits[i][j], 1)
					}
				})
				for i := range hits {
					for j, h := range hits[i] {
						if h != 1 {
							t.Fatalf("workers=%d block=%d rows=%d n=%d: cell (%d,%d) executed %d times",
								workers, blockSize, shape.rows, shape.n, i, j, h)
						}
					}
				}
			}
			e.Close()
		}
	}
}

// TestBlockCount pins the sharding heuristic: no splitting when the rows
// alone fill the pool or the engine is serial, rows×blocks ≈ workers
// otherwise, and blocks never narrower than the block-size floor.
func TestBlockCount(t *testing.T) {
	serial := NewEngine(0)
	if b := serial.blockCount(1, 1<<20); b != 1 {
		t.Fatalf("serial engine splits into %d blocks", b)
	}
	var nilEngine *Engine
	if b := nilEngine.blockCount(1, 1<<20); b != 1 {
		t.Fatalf("nil engine splits into %d blocks", b)
	}
	e := NewEngine(8)
	defer e.Close()
	if b := e.blockCount(8, 1<<20); b != 1 {
		t.Fatalf("rows=workers split into %d blocks, want 1", b)
	}
	if b := e.blockCount(12, 1<<20); b != 1 {
		t.Fatalf("rows>workers split into %d blocks, want 1", b)
	}
	if b := e.blockCount(2, 1<<20); b != 4 {
		t.Fatalf("rows=2, workers=8: %d blocks, want 4 (rows×blocks = workers)", b)
	}
	if b := e.blockCount(3, 1<<20); b != 3 {
		t.Fatalf("rows=3, workers=8: %d blocks, want ceil(8/3)=3", b)
	}
	// The floor caps the split: n/DefaultBlockSize = 2 blocks at most.
	if b := e.blockCount(1, 2*DefaultBlockSize); b != 2 {
		t.Fatalf("floor cap: %d blocks, want 2", b)
	}
	// Rows shorter than two blocks never split.
	if b := e.blockCount(1, DefaultBlockSize+1); b != 1 {
		t.Fatalf("sub-2-block row split into %d blocks", b)
	}
	e.SetBlockSize(1 << 20)
	if b := e.blockCount(1, 1<<20); b != 1 {
		t.Fatalf("blockSize=n must disable sharding, got %d blocks", b)
	}
	e.SetBlockSize(0)
	if got := e.BlockSize(); got != DefaultBlockSize {
		t.Fatalf("SetBlockSize(0) left floor at %d, want default %d", got, DefaultBlockSize)
	}
}

// TestEngineRunStealsLateFreeingWorkers pins the shared-counter dispatch
// property that fixed the select-default fallback: a Run dispatched while
// every worker is momentarily busy must still hand remaining indices to
// workers that free up mid-loop, instead of degrading to the caller alone.
// The second Run's index 0 blocks until index 1 has executed: under the old
// inline fallback the caller ran index 0 first and nothing could ever run
// index 1 (deadlock); with counter-based stealing, a worker released from
// the first Run claims index 1 and unblocks the whole dispatch.
func TestEngineRunStealsLateFreeingWorkers(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	release := make(chan struct{})
	var occupied atomic.Int64
	firstDone := make(chan struct{})
	go func() {
		// 5 blocking tasks: the caller claims one, the 4 workers one each.
		e.Run(5, func(int) {
			occupied.Add(1)
			<-release
		})
		close(firstDone)
	}()
	for occupied.Load() < 5 {
		runtime.Gosched()
	}

	// Every worker is busy. Issue a second Run whose index 0 waits on
	// index 1, then free the pool mid-run.
	oneRan := make(chan struct{})
	secondDone := make(chan struct{})
	go func() {
		e.Run(2, func(i int) {
			if i == 0 {
				<-oneRan
			} else {
				close(oneRan)
			}
		})
		close(secondDone)
	}()
	time.Sleep(10 * time.Millisecond) // let the second Run park on index 0
	close(release)
	<-firstDone
	select {
	case <-secondDone:
	case <-time.After(10 * time.Second):
		t.Fatal("late-freeing workers never stole the second Run's work")
	}
}

// TestShardedKernelsMatchSerial is the -race equivalence sweep of the
// coefficient-block sharded kernels: every kernel, at every level 0..L,
// across worker counts {0, 1, 3, GOMAXPROCS} and block sizes {small, odd,
// N (sharding disabled)}, must be bit-identical to the serial engine.
func TestShardedKernelsMatchSerial(t *testing.T) {
	const logN, nPrimes = 9, 6
	n := 1 << logN
	primes, err := mod.GenerateNTTPrimes(45, logN, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetWorkers(0)

	workerCounts := []int{0, 1, 3, runtime.GOMAXPROCS(0)}
	blockSizes := []int{16, 33, n} // minimum-ish, odd (ragged blocks), sharding off

	type kernel struct {
		name string
		run  func(r *Ring, x, y, out *Poly, lvl int)
	}
	kernels := []kernel{
		{"NTT", func(r *Ring, x, _, _ *Poly, lvl int) { r.NTT(x, lvl) }},
		{"INTT", func(r *Ring, x, _, _ *Poly, lvl int) { r.INTT(x, lvl) }},
		{"Add", func(r *Ring, x, y, out *Poly, lvl int) { r.Add(x, y, out, lvl) }},
		{"Sub", func(r *Ring, x, y, out *Poly, lvl int) { r.Sub(x, y, out, lvl) }},
		{"Neg", func(r *Ring, x, _, out *Poly, lvl int) { r.Neg(x, out, lvl) }},
		{"MulCoeffs", func(r *Ring, x, y, out *Poly, lvl int) { r.MulCoeffs(x, y, out, lvl) }},
		{"MulCoeffsAndAdd", func(r *Ring, x, y, out *Poly, lvl int) { r.MulCoeffsAndAdd(x, y, out, lvl) }},
		{"MulScalar", func(r *Ring, x, _, out *Poly, lvl int) { r.MulScalar(x, 0xdeadbeef, out, lvl) }},
		{"MulScalarInt64", func(r *Ring, x, _, out *Poly, lvl int) { r.MulScalarInt64(x, -123456789, out, lvl) }},
		{"AutomorphismNTT", func(r *Ring, x, _, out *Poly, lvl int) {
			r.AutomorphismNTT(x, r.GaloisElement(3), out, lvl)
		}},
		{"AutomorphismCoeff", func(r *Ring, x, _, out *Poly, lvl int) {
			r.AutomorphismCoeff(x, r.GaloisElement(3), out, lvl)
		}},
		{"MulByMonomialNTT", func(r *Ring, x, _, out *Poly, lvl int) { r.MulByMonomialNTT(x, r.N/2, out, lvl) }},
		{"LazyMACReduce", func(r *Ring, x, y, out *Poly, lvl int) {
			table := r.AutoIndexNTT(r.GaloisElement(3))
			acc := r.GetAcc(lvl)
			r.MulGatherAndAddLazy(x, table, y, acc, lvl)
			r.MulGatherAndAddLazy(y, table, x, acc, lvl)
			r.ReduceAcc(acc, out, lvl)
			r.PutAcc(acc)
		}},
	}

	for _, workers := range workerCounts {
		for _, bs := range blockSizes {
			r, err := NewRing(logN, primes)
			if err != nil {
				t.Fatal(err)
			}
			r.SetWorkers(workers)
			r.Exec().SetBlockSize(bs)
			cfg := fmt.Sprintf("workers=%d block=%d", workers, bs)
			for lvl := 0; lvl <= nPrimes-1; lvl++ {
				for _, k := range kernels {
					seed := int64(1000*lvl + len(k.name))
					xS := ref.NewPolyLevel(nPrimes - 1)
					yS := ref.NewPolyLevel(nPrimes - 1)
					outS := ref.NewPolyLevel(nPrimes - 1)
					ref.SampleUniform(rand.New(rand.NewSource(seed)), xS, nPrimes-1)
					ref.SampleUniform(rand.New(rand.NewSource(seed+1)), yS, nPrimes-1)
					ref.SampleUniform(rand.New(rand.NewSource(seed+2)), outS, nPrimes-1)
					xP := ref.CopyNew(xS, nPrimes-1)
					yP := ref.CopyNew(yS, nPrimes-1)
					outP := ref.CopyNew(outS, nPrimes-1)
					k.run(ref, xS, yS, outS, lvl)
					k.run(r, xP, yP, outP, lvl)
					if !ref.Equal(xS, xP, lvl) || !ref.Equal(outS, outP, lvl) {
						t.Fatalf("%s: %s at level %d differs from serial", cfg, k.name, lvl)
					}
				}
			}
			r.SetEngine(nil) // close the private engine
		}
	}
}

// TestShardedBasisConvertMatchesSerial sweeps the 2-D sharded BConv across
// source-base lengths (short bases are where coefficient sharding engages),
// block sizes, and worker counts.
func TestShardedBasisConvertMatchesSerial(t *testing.T) {
	const logN = 9
	n := 1 << logN
	primes, err := mod.GenerateNTTPrimes(45, logN, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, nf := range []int{1, 2, 4} {
		from, to := r.Moduli[:nf], r.Moduli[nf:]
		beS, err := NewBasisExtender(from, to)
		if err != nil {
			t.Fatal(err)
		}
		beS.SetEngine(nil)
		in := make([][]uint64, nf)
		for j := range in {
			in[j] = make([]uint64, n)
			for k := range in[j] {
				in[j][k] = uniformUint64(rng, from[j].Q)
			}
		}
		outS := make([][]uint64, len(to))
		outP := make([][]uint64, len(to))
		for i := range outS {
			outS[i] = make([]uint64, n)
			outP[i] = make([]uint64, n)
		}
		beS.Convert(in, outS)
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			for _, bs := range []int{16, 33, n} {
				e := NewEngine(workers)
				e.SetBlockSize(bs)
				beP, err := NewBasisExtender(from, to)
				if err != nil {
					t.Fatal(err)
				}
				beP.SetEngine(e)
				for rep := 0; rep < 2; rep++ { // reuse pooled scratch
					beP.Convert(in, outP)
					for i := range outS {
						for k := range outS[i] {
							if outS[i][k] != outP[i][k] {
								t.Fatalf("nf=%d workers=%d block=%d rep %d: Convert differs at row %d, coeff %d",
									nf, workers, bs, rep, i, k)
							}
						}
					}
				}
				e.Close()
			}
		}
	}
}
