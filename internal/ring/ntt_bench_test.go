package ring

import (
	"fmt"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// Kernel-level NTT benchmarks at the Table 2 instance's shape: single rows of
// N=2^17 coefficients under the chain's two prime widths (50-bit working
// primes, 60-bit bootstrap-section primes). They time the scalar Montgomery
// radix-2 kernel against the fused radix-4 kernel directly — serial engine,
// one row, no dispatch — so a fused-kernel regression shows up in
// `go test -bench NTTKernel ./internal/ring`. b.SetBytes reports the algorithmic stream rate (one load + one store
// per coefficient per radix-2 stage equivalent), making the fused kernels'
// traffic savings visible as a higher MB/s at equal algorithmic bytes.

func benchNTTKernel(b *testing.B, logN, logQ int, fn func(r *Ring, p *Poly)) {
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
	b.SetBytes(int64(16 * r.N * logN))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(r, p)
	}
}

func BenchmarkNTTKernel(b *testing.B) {
	for _, logQ := range []int{50, 60} {
		for _, k := range []struct {
			name string
			fwd  func(r *Ring, p *Poly)
			inv  func(r *Ring, p *Poly)
		}{
			{"radix2",
				func(r *Ring, p *Poly) { r.NTTRadix2(p, 0) },
				func(r *Ring, p *Poly) { r.INTTRadix2(p, 0) }},
			{"radix4",
				func(r *Ring, p *Poly) { r.NTT(p, 0) },
				func(r *Ring, p *Poly) { r.INTT(p, 0) }},
		} {
			b.Run(fmt.Sprintf("NTT/%s/logN=17/q=%d", k.name, logQ), func(b *testing.B) {
				benchNTTKernel(b, 17, logQ, k.fwd)
			})
			b.Run(fmt.Sprintf("INTT/%s/logN=17/q=%d", k.name, logQ), func(b *testing.B) {
				benchNTTKernel(b, 17, logQ, k.inv)
			})
		}
	}
}
