package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// Kernel-level NTT benchmarks at the Table 2 instance's shapes: single rows
// of N=2^17 coefficients (the paper's ring) and N=2^12 (the boot benchmark
// workload's), under the chain's two prime widths (50-bit working primes,
// 60-bit bootstrap-section primes). They time the scalar Montgomery radix-2
// oracle against the production radix-4 Shoup kernel directly — serial
// engine, one row, no dispatch — so a kernel regression shows up in
// `go test -bench NTTKernel ./internal/ring`. b.SetBytes reports the
// algorithmic stream rate (one load + one store per coefficient per radix-2
// stage equivalent), making the fused kernels' traffic savings visible as a
// higher MB/s at equal algorithmic bytes.

// benchNTTKernel times the transform kernel(r) returns on one row; kernel
// runs its set-up (the oracle's Montgomery tables) outside the timer.
func benchNTTKernel(b *testing.B, logN, logQ int, kernel func(r *Ring) func(row []uint64)) {
	primes, err := mod.GenerateNTTPrimes(logQ, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRing(logN, primes)
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
	kernels := []struct {
		name     string
		fwd, inv func(r *Ring) func(row []uint64)
	}{
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
		{"radix4",
			func(r *Ring) func([]uint64) { return func(row []uint64) { r.nttRowRadix4(row, r.Moduli[0]) } },
			func(r *Ring) func([]uint64) { return func(row []uint64) { r.inttRowRadix4(row, r.Moduli[0]) } }},
	}
	for _, logN := range []int{12, 17} {
		for _, logQ := range []int{50, 60} {
			for _, k := range kernels {
				b.Run(fmt.Sprintf("NTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					benchNTTKernel(b, logN, logQ, k.fwd)
				})
				b.Run(fmt.Sprintf("INTT/%s/logN=%d/q=%d", k.name, logN, logQ), func(b *testing.B) {
					benchNTTKernel(b, logN, logQ, k.inv)
				})
			}
		}
	}
}
