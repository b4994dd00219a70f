package ckks

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPooledCiphertextRoundTrip checks that pooled ciphertexts are drop-in
// replacements for plain ones through a full encrypt→evaluate→decrypt chain,
// and that recycling through PutCiphertext reuses the object.
func TestPooledCiphertextRoundTrip(t *testing.T) {
	s := newTestSetup(t, 2, []int{1})
	rng := rand.New(rand.NewSource(77))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	got := s.ctx.GetCiphertext(ct.Level, ct.Scale)
	if !got.Pooled() {
		t.Fatal("GetCiphertext did not mark the ciphertext pooled")
	}
	if err := s.ctx.CopyCiphertext(got, ct); err != nil {
		t.Fatal(err)
	}
	dec := s.encoder.Decode(s.dec.DecryptNew(got))
	if e := maxErr(dec, values); e > 1e-6 {
		t.Fatalf("pooled copy decrypts wrong: %g", e)
	}

	// Evaluator outputs are pooled and behave identically.
	sum := s.eval.Add(got, ct)
	if !sum.Pooled() {
		t.Fatal("evaluator output is not pooled")
	}
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = 2 * values[i]
	}
	dec = s.encoder.Decode(s.dec.DecryptNew(sum))
	if e := maxErr(dec, want); e > 1e-6 {
		t.Fatalf("pooled Add wrong: %g", e)
	}

	s.ctx.PutCiphertext(sum)
	s.ctx.PutCiphertext(got)
	reused := s.ctx.GetCiphertext(2, s.params.Scale)
	if reused != sum && reused != got {
		t.Fatal("pool did not recycle a returned ciphertext")
	}
	// A recycled ciphertext must come back zeroed.
	for lvl := 0; lvl <= 2; lvl++ {
		for j := 0; j < s.ctx.RingQ.N; j++ {
			if reused.C0.Coeffs[lvl][j] != 0 || reused.C1.Coeffs[lvl][j] != 0 {
				t.Fatal("GetCiphertext returned non-zero rows")
			}
		}
	}
}

// TestCopyCiphertextPlainTooSmall checks the error path: copying into a plain
// ciphertext with too few rows must fail instead of corrupting memory.
func TestCopyCiphertextPlainTooSmall(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	small := s.ctx.NewCiphertext(0, s.params.Scale)
	big := s.ctx.NewCiphertext(s.params.MaxLevel(), s.params.Scale)
	if err := s.ctx.CopyCiphertext(small, big); err == nil {
		t.Fatal("CopyCiphertext into an undersized plain ciphertext should error")
	}
	// A pooled destination grows instead.
	pooled := s.ctx.GetCiphertext(0, s.params.Scale)
	if err := s.ctx.CopyCiphertext(pooled, big); err != nil {
		t.Fatal(err)
	}
	if pooled.Level != big.Level {
		t.Fatalf("pooled dst level %d, want %d", pooled.Level, big.Level)
	}
	s.ctx.PutCiphertext(pooled)
}

// TestDropLevelReleasesPooledRows checks that DropLevel on a pooled
// ciphertext returns the discarded limb rows to the scratch pool and keeps
// the message intact, while a plain ciphertext keeps its rows attached.
func TestDropLevelReleasesPooledRows(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(78))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	pooled := s.ctx.GetCiphertext(ct.Level, ct.Scale)
	if err := s.ctx.CopyCiphertext(pooled, ct); err != nil {
		t.Fatal(err)
	}
	pooled.DropLevel(1)
	if len(pooled.C0.Coeffs) != 2 || len(pooled.C1.Coeffs) != 2 {
		t.Fatalf("pooled DropLevel kept %d rows, want 2", len(pooled.C0.Coeffs))
	}
	dec := s.encoder.Decode(s.dec.DecryptNew(pooled))
	if e := maxErr(dec, values); e > 1e-6 {
		t.Fatalf("pooled DropLevel changed the message: %g", e)
	}
	// Growing back via CopyCiphertext reacquires rows.
	if err := s.ctx.CopyCiphertext(pooled, ct); err != nil {
		t.Fatal(err)
	}
	dec = s.encoder.Decode(s.dec.DecryptNew(pooled))
	if e := maxErr(dec, values); e > 1e-6 {
		t.Fatalf("regrown pooled ciphertext wrong: %g", e)
	}
	s.ctx.PutCiphertext(pooled)

	plain := ct.CopyNew(s.ctx)
	plain.DropLevel(1)
	if len(plain.C0.Coeffs) != s.params.MaxLevel()+1 {
		t.Fatal("plain DropLevel must not detach rows")
	}
}

// TestConcurrentEvaluation runs many goroutines through one evaluator —
// the in-flight pattern of the serving runtime — and checks every result.
// Run with -race to exercise the cache guards (automorphism tables, modUp/
// modDown extenders, ciphertext pool).
func TestConcurrentEvaluation(t *testing.T) {
	s := newTestSetup(t, 2, []int{1, 2})
	rng := rand.New(rand.NewSource(79))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	const flights = 8
	results := make([]*Ciphertext, flights)
	var wg sync.WaitGroup
	for f := 0; f < flights; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rot := s.eval.Rotate(ct, 1+f%2)
			// Odd flights take the fused division, so both ModDown table
			// sets are built and read under contention.
			var prod *Ciphertext
			if f%2 == 1 {
				prod = s.eval.MulRelinRescale(rot, ct)
			} else {
				mul := s.eval.MulRelin(rot, ct)
				prod = s.eval.Rescale(mul)
				s.ctx.PutCiphertext(mul)
			}
			results[f] = s.eval.Add(prod, prod)
			s.ctx.PutCiphertext(rot)
			s.ctx.PutCiphertext(prod)
		}(f)
	}
	wg.Wait()

	slots := s.params.Slots()
	for f := 0; f < flights; f++ {
		r := 1 + f%2
		want := make([]complex128, slots)
		for i := range want {
			want[i] = 2 * values[(i+r)%slots] * values[i]
		}
		dec := s.encoder.Decode(s.dec.DecryptNew(results[f]))
		if e := maxErr(dec, want); e > 1e-4 {
			t.Fatalf("flight %d (rot %d) wrong: %g", f, r, e)
		}
		s.ctx.PutCiphertext(results[f])
	}
}
