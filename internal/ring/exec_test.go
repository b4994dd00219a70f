package ring

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bts/internal/mod"
)

// twoRings builds two rings over the same prime chain, one serial and one
// with the given worker count, for bit-identical equivalence checks.
func twoRings(t testing.TB, logN, nPrimes, workers int) (serial, parallel *Ring) {
	t.Helper()
	primes, err := mod.GenerateNTTPrimes(45, logN, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	serial, err = NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err = NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetEngine(NewEngine(workers))
	return serial, parallel
}

func TestEngineRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		e := NewEngine(workers)
		var hits [257]int64
		e.Run(len(hits), func(i int) { atomic.AddInt64(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

func TestEngineNestedRunDoesNotDeadlock(t *testing.T) {
	e := NewEngine(2)
	var total int64
	e.Run(8, func(i int) {
		e.Run(8, func(j int) { atomic.AddInt64(&total, 1) })
	})
	if total != 64 {
		t.Fatalf("nested Run executed %d inner tasks, want 64", total)
	}
}

func TestEngineWorkers(t *testing.T) {
	if w := NewEngine(0).Workers(); w != 0 {
		t.Fatalf("serial engine reports %d workers", w)
	}
	if w := NewEngine(1).Workers(); w != 0 {
		t.Fatalf("1-worker engine should be serial, reports %d", w)
	}
	e := NewEngine(3)
	if w := e.Workers(); w != 3 {
		t.Fatalf("engine reports %d workers, want 3", w)
	}
	var nilEngine *Engine
	if w := nilEngine.Workers(); w != 0 {
		t.Fatalf("nil engine reports %d workers", w)
	}
	nilEngine.Run(3, func(int) {}) // must not panic
}

// TestDroppedEngineReleasesWorkers pins the engine's lifetime: an engine has
// no Close, and its workers stop once nothing references it. A ring swaps in
// three engines, runs an NTT on each, and is dropped; after collections the
// goroutine count must fall back to where it was before the ring.
func TestDroppedEngineReleasesWorkers(t *testing.T) {
	base := settledGoroutines()
	func() {
		r := testRing(t, 6, 3)
		lvl := r.MaxLevel()
		p := r.NewPolyLevel(lvl)
		for _, workers := range []int{2, 3, 4} {
			r.SetEngine(NewEngine(workers))
			r.NTT(p, lvl)
		}
		if n := runtime.NumGoroutine(); n < base+4 {
			t.Fatalf("%d goroutines with a 4-worker engine attached, want at least %d", n, base+4)
		}
	}()
	waitForGoroutines(t, base)
}

// settledGoroutines collects until the goroutine count stops changing, so
// workers of engines dropped by earlier tests do not leave with the test's
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
			t.Fatalf("%d goroutines still run after the engines were dropped, want at most %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelMatchesSerial drives every limb-dispatched kernel with workers
// well above the limb count and demands bit-identical results vs serial.
func TestParallelMatchesSerial(t *testing.T) {
	const logN, nPrimes = 8, 6
	lvl := nPrimes - 1
	rs, rp := twoRings(t, logN, nPrimes, 4)

	newPair := func(seed int64) (a, b *Poly) {
		a = rs.NewPolyLevel(lvl)
		rs.SampleUniform(rand.New(rand.NewSource(seed)), a, lvl)
		b = rs.CopyNew(a, lvl)
		return a, b
	}

	type kernel struct {
		name string
		run  func(r *Ring, x, y, out *Poly)
	}
	x0, x1 := newPair(11)
	y0, y1 := newPair(12)
	g := rs.GaloisElement(3)
	kernels := []kernel{
		{"NTT", func(r *Ring, x, _, _ *Poly) { r.NTT(x, lvl) }},
		{"INTT", func(r *Ring, x, _, _ *Poly) { r.INTT(x, lvl) }},
		{"Add", func(r *Ring, x, y, out *Poly) { r.Add(x, y, out, lvl) }},
		{"Sub", func(r *Ring, x, y, out *Poly) { r.Sub(x, y, out, lvl) }},
		{"Neg", func(r *Ring, x, _, out *Poly) { r.Neg(x, out, lvl) }},
		{"MulCoeffs", func(r *Ring, x, y, out *Poly) { r.MulCoeffs(x, y, out, lvl) }},
		{"MulCoeffsAndAdd", func(r *Ring, x, y, out *Poly) { r.MulCoeffsAndAdd(x, y, out, lvl) }},
		{"MulScalarInt64", func(r *Ring, x, _, out *Poly) { r.MulScalarInt64(x, -123456789, out, lvl) }},
		{"AutomorphismNTT", func(r *Ring, x, _, out *Poly) { r.AutomorphismNTT(x, g, out, lvl) }},
		{"AutomorphismCoeff", func(r *Ring, x, _, out *Poly) { r.AutomorphismCoeff(x, g, out, lvl) }},
		{"MulByMonomialNTT", func(r *Ring, x, _, out *Poly) { r.MulByMonomialNTT(x, r.N/2, out, lvl) }},
	}
	for _, k := range kernels {
		outS := rs.NewPolyLevel(lvl)
		outP := rp.NewPolyLevel(lvl)
		// MulCoeffsAndAdd accumulates: seed both outputs identically.
		rs.SampleUniform(rand.New(rand.NewSource(13)), outS, lvl)
		rs.CopyLevel(outP, outS, lvl)
		k.run(rs, x0, y0, outS)
		k.run(rp, x1, y1, outP)
		if !rs.Equal(x0, x1, lvl) || !rs.Equal(outS, outP, lvl) {
			t.Fatalf("%s: parallel result differs from serial", k.name)
		}
	}
}

func TestBasisExtenderParallelMatchesSerial(t *testing.T) {
	const logN = 8
	primes, err := mod.GenerateNTTPrimes(45, logN, 7)
	if err != nil {
		t.Fatal(err)
	}
	from, to := primes[:3], primes[3:]
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	beS, err := NewBasisExtender(r.Moduli[:3], r.Moduli[3:])
	if err != nil {
		t.Fatal(err)
	}
	beS.SetEngine(nil)
	beP, err := NewBasisExtender(r.Moduli[:3], r.Moduli[3:])
	if err != nil {
		t.Fatal(err)
	}
	beP.SetEngine(NewEngine(4))

	rng := rand.New(rand.NewSource(21))
	n := 1 << logN
	in := make([][]uint64, len(from))
	for j := range in {
		in[j] = make([]uint64, n)
		for k := range in[j] {
			in[j][k] = uniformUint64(rng, from[j])
		}
	}
	outS := make([][]uint64, len(to))
	outP := make([][]uint64, len(to))
	for i := range outS {
		outS[i] = make([]uint64, n)
		outP[i] = make([]uint64, n)
	}
	// Run repeatedly so the pooled stage-1 scratch gets reused.
	for rep := 0; rep < 3; rep++ {
		beS.Convert(in, outS)
		beP.Convert(in, outP)
		for i := range outS {
			for k := range outS[i] {
				if outS[i][k] != outP[i][k] {
					t.Fatalf("rep %d: Convert differs at row %d, coeff %d", rep, i, k)
				}
			}
		}
	}
}

func TestGaloisElementSquareAndMultiply(t *testing.T) {
	r := testRing(t, 10, 1)
	mask := uint64(2*r.N) - 1
	naive := func(rot int) uint64 {
		rot %= r.N / 2
		if rot < 0 {
			rot += r.N / 2
		}
		g := uint64(1)
		for i := 0; i < rot; i++ {
			g = (g * 5) & mask
		}
		return g
	}
	for _, rot := range []int{0, 1, 2, 3, 7, 64, 255, r.N/2 - 1, r.N / 2, r.N, -1, -5, -r.N / 2, 123456789} {
		if got, want := r.GaloisElement(rot), naive(rot); got != want {
			t.Fatalf("GaloisElement(%d) = %d, want %d", rot, got, want)
		}
	}
}

func TestGetPutPoly(t *testing.T) {
	r := testRing(t, 6, 4)
	r.PutPoly(nil) // must not panic

	// GetPolyNoZero hands out full-chain polynomials without clearing.
	nz := r.GetPolyNoZero()
	if len(nz.Coeffs) != 4 {
		t.Fatalf("GetPolyNoZero returned %d rows, want 4", len(nz.Coeffs))
	}
	r.PutPoly(nz)

	defer func() {
		if recover() == nil {
			t.Fatal("PutPoly of a short polynomial should panic")
		}
	}()
	r.PutPoly(r.NewPolyLevel(1))
}

func BenchmarkNTTWorkers(b *testing.B) {
	primes, err := mod.GenerateNTTPrimes(45, 13, 12)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{0, runtime.NumCPU()} {
		r, err := NewRing(13, primes)
		if err != nil {
			b.Fatal(err)
		}
		r.SetEngine(NewEngine(workers))
		lvl := len(primes) - 1
		p := r.NewPolyLevel(lvl)
		r.SampleUniform(rand.New(rand.NewSource(9)), p, lvl)
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p, lvl)
				r.INTT(p, lvl)
			}
		})
	}
}

func BenchmarkBasisConvertWorkers(b *testing.B) {
	primes, err := mod.GenerateNTTPrimes(45, 13, 12)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(13, primes)
	if err != nil {
		b.Fatal(err)
	}
	be, err := NewBasisExtender(r.Moduli[:6], r.Moduli[6:])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	in := make([][]uint64, 6)
	out := make([][]uint64, 6)
	for i := 0; i < 6; i++ {
		in[i] = make([]uint64, r.N)
		out[i] = make([]uint64, r.N)
		for k := range in[i] {
			in[i][k] = uniformUint64(rng, r.Moduli[i].Q)
		}
	}
	for _, workers := range []int{0, runtime.NumCPU()} {
		e := NewEngine(workers)
		be.SetEngine(e)
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.Convert(in, out)
			}
		})
	}
}

func benchName(prefix string, workers int) string {
	if workers == 0 {
		return prefix + "=serial"
	}
	return prefix + "=" + itoa(workers)
}
