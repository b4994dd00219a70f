package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// Kernel-level NTT benchmarks at the Table 2 instance's shapes: single rows
// of N=2^17 coefficients (the paper's ring) and N=2^12 (the boot benchmark
// workload's), under a 45-bit prime, the chain's two prime widths (50-bit
// working primes, 60-bit bootstrap-section primes) and the largest NTT
// prime below 2^51 (q=51, the top of the IFMA tier). They time the scalar
// Montgomery radix-2 oracle against the production radix-4 Shoup kernel
// directly — serial engine, one row, no dispatch — so a kernel regression
// shows up in `go test -bench NTTKernel ./internal/ring`. b.SetBytes
// reports the algorithmic stream rate (one load + one store per coefficient
// per radix-2 stage equivalent), making the fused kernels' traffic savings
// visible as a higher MB/s at equal algorithmic bytes.

// benchNTTKernel times the transform kernel(r) returns on one row of the
// modulus q; kernel runs its set-up (the oracle's Montgomery tables)
// outside the timer. The ifma kernel skips a modulus the IFMA tier does
// not serve.
func benchNTTKernel(b *testing.B, logN int, q uint64, name string, kernel func(r *Ring) func(row []uint64)) {
	if name == "ifma" && q >= ifmaBound {
		b.Skipf("q = %d is not below 2^51: the IFMA tier does not serve it", q)
	}
	r, err := NewRing(logN, []uint64{q})
	if err != nil {
		b.Fatal(err)
	}
	r.SetEngine(nil) // serial: time the kernel, not the dispatch
	rng := rand.New(rand.NewSource(42))
	p := r.NewPolyLevel(0)
	r.SampleUniform(rng, p, 0)
	fn := kernel(r)
	b.SetBytes(int64(16 * r.N * logN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(p.Coeffs[0])
	}
}

func BenchmarkNTTKernel(b *testing.B) {
	// radix4 runs the fused row kernels on the tier tier(r) picks (nil: the
	// Go passes).
	radix4 := func(tier func(r *Ring) *nttLanes) (fwd, inv func(r *Ring) func([]uint64)) {
		return func(r *Ring) func([]uint64) {
				k := tier(r)
				return func(row []uint64) { r.nttRowRadix4(row, r.Moduli[0], k) }
			}, func(r *Ring) func([]uint64) {
				k := tier(r)
				return func(row []uint64) { r.inttRowRadix4(row, r.Moduli[0], k) }
			}
	}
	type kernel struct {
		name     string
		fwd, inv func(r *Ring) func(row []uint64)
	}
	kernels := []kernel{
		{"radix2",
			func(r *Ring) func([]uint64) {
				m := r.Moduli[0]
				psiRev, _, _ := m.montTwiddles()
				return func(row []uint64) { r.nttRowRadix2(row, m, psiRev) }
			},
			func(r *Ring) func([]uint64) {
				m := r.Moduli[0]
				_, psiInvRev, nInvM := m.montTwiddles()
				return func(row []uint64) { r.inttRowRadix2(row, m, psiInvRev, nInvM) }
			}},
	}
	// ifma is the IFMA pass set the ring picks for its modulus (Ring.lanes).
	for _, k := range []struct {
		name string
		tier func(r *Ring) *nttLanes
	}{
		{"radix4", func(*Ring) *nttLanes { return nil }},
		{"lanes", func(*Ring) *nttLanes { return &dqLanes }},
		{"ifma", func(r *Ring) *nttLanes { return r.lanes(r.Moduli[0]) }},
	} {
		fwd, inv := radix4(k.tier)
		kernels = append(kernels, kernel{k.name, fwd, inv})
	}
	for _, logN := range []int{12, 17} {
		for _, logQ := range []int{45, 50, 51, 60} {
			q := benchPrime(b, logQ, logN)
			for _, k := range kernels {
				b.Run(fmt.Sprintf("NTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					skipWithoutLanes(b, k.name)
					benchNTTKernel(b, logN, q, k.name, k.fwd)
				})
				b.Run(fmt.Sprintf("INTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					skipWithoutLanes(b, k.name)
					benchNTTKernel(b, logN, q, k.name, k.inv)
				})
			}
		}
	}
}

// benchPrime returns the kernel benchmarks' NTT prime for the row q=logQ
// in rings of degree 2^logN: the largest below 2^51 for logQ 51, the top
// of the IFMA tier, and the one GenerateNTTPrimes puts nearest 2^logQ
// otherwise.
func benchPrime(b *testing.B, logQ, logN int) uint64 {
	if logQ == 51 {
		return largestNTTPrimeBelow(1<<51, logN)
	}
	primes, err := mod.GenerateNTTPrimes(logQ, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	return primes[0]
}

// skipWithoutLanes skips the benchmarks of a lane tier ("lanes", the DQ
// tier, or "ifma") on a CPU without it.
func skipWithoutLanes(b *testing.B, kernel string) {
	switch {
	case (kernel == "lanes" || kernel == "ifma") && !useLanes:
		b.Skip("no AVX-512 F/DQ on this CPU: the lane kernels cannot run")
	case kernel == "ifma" && !useIFMA:
		b.Skip("no AVX-512 IFMA on this CPU: the IFMA tier cannot run")
	}
}
