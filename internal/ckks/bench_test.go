package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks of the primitive HE ops the accelerator targets, measured on
// the real library at a reduced degree (N=2^12). These are the operations
// whose N=2^17 hardware costs internal/sim models.

// benchToyLiteral is the small dnum = 3 shape every primitive is timed at.
var benchToyLiteral = ParametersLiteral{
	LogN:     12,
	LogQ:     []int{50, 40, 40, 40, 40, 40, 40, 40},
	LogP:     51,
	Dnum:     3,
	LogScale: 40,
	H:        64,
}

func benchSetup(b *testing.B) (*testSetup, *Ciphertext, *Ciphertext) {
	return benchSetupAt(b, benchToyLiteral, len(benchToyLiteral.LogQ)-1)
}

// benchSetupAt builds an instance of lit and two ciphertexts at level lvl.
func benchSetupAt(b testing.TB, lit ParametersLiteral, lvl int) (*testSetup, *Ciphertext, *Ciphertext) {
	b.Helper()
	params, err := NewParameters(lit)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, []int{1}, true)
	encoder := NewEncoder(ctx)
	s := &testSetup{
		params: params, ctx: ctx, encoder: encoder, kg: kg, sk: sk, rlk: rlk,
		enc: NewEncryptorSK(ctx, sk, 2), dec: NewDecryptor(ctx, sk),
		eval: NewEvaluator(ctx, encoder, rlk, rtks),
	}
	rng := rand.New(rand.NewSource(3))
	v0 := randomComplex(rng, params.Slots(), 1)
	v1 := randomComplex(rng, params.Slots(), 1)
	pt0, _ := encoder.Encode(v0, lvl, params.Scale)
	pt1, _ := encoder.Encode(v1, lvl, params.Scale)
	ct0, _ := s.enc.EncryptNew(pt0)
	ct1, _ := s.enc.EncryptNew(pt1)
	return s, ct0, ct1
}

func BenchmarkEncode(b *testing.B) {
	s, _, _ := benchSetup(b)
	rng := rand.New(rand.NewSource(4))
	v := randomComplex(rng, s.params.Slots(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.encoder.Encode(v, s.params.MaxLevel(), s.params.Scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHAdd(b *testing.B) {
	s, ct0, ct1 := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.eval.Add(ct0, ct1)
	}
}

// BenchmarkHMultRelin times HMult alone, then a product and its rescale both
// ways — MulRelin+Rescale against the single division of
// MulRelinRescale — at the toy shape and at the paper's key-switch shape
// (dnum = 1, 28 special primes) near the top and the middle of EvalMod.
func BenchmarkHMultRelin(b *testing.B) {
	ins1 := Table2Literal()
	ins1.LogN = 12
	for _, c := range []struct {
		name string
		lit  ParametersLiteral
		lvl  int
	}{
		{"toy_dnum3", benchToyLiteral, len(benchToyLiteral.LogQ) - 1},
		{"ins1_dnum1", ins1, 23},
		{"ins1_dnum1", ins1, 14},
	} {
		s, ct0, ct1 := benchSetupAt(b, c.lit, c.lvl)
		ev, ctx := s.eval, s.ctx
		name := fmt.Sprintf("%s/level=%d/", c.name, c.lvl)
		b.Run(name+"MulRelin", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.PutCiphertext(ev.MulRelin(ct0, ct1))
			}
		})
		b.Run(name+"MulRelin+Rescale", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := ev.MulRelin(ct0, ct1)
				ctx.PutCiphertext(ev.Rescale(m))
				ctx.PutCiphertext(m)
			}
		})
		b.Run(name+"MulRelinRescale", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.PutCiphertext(ev.MulRelinRescale(ct0, ct1))
			}
		})
	}
}

func BenchmarkHRot(b *testing.B) {
	s, ct0, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.eval.Rotate(ct0, 1)
	}
}

func BenchmarkHRescale(b *testing.B) {
	s, ct0, ct1 := benchSetup(b)
	prod := s.eval.MulRelin(ct0, ct1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.eval.Rescale(prod)
	}
}

func BenchmarkBootstrap(b *testing.B) {
	if testing.Short() {
		b.Skip("bootstrapping bench skipped with -short")
	}
	s, bt := bootSetup(b)
	pt, _ := s.encoder.Encode([]complex128{0.25, -0.5}, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Bootstrap(ct); err != nil {
			b.Fatal(err)
		}
	}
}
