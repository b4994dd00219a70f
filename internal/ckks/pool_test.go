package ckks

import (
	"math/rand"
	"sync"
	"testing"

	"bts/internal/telemetry"
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

	got := s.ctx.CopyPooled(ct)
	if !got.Pooled() {
		t.Fatal("CopyPooled did not mark the ciphertext pooled")
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
	// Under the race detector sync.Pool drops a quarter of all Puts at
	// random, so both returns can miss the pool (one run in 16); retry with
	// fresh returns, which a pool that never recycles cannot get back.
	for round := 0; round < 8 && reused != sum && reused != got; round++ {
		sum, got = reused, s.ctx.GetCiphertext(2, s.params.Scale)
		s.ctx.PutCiphertext(sum)
		s.ctx.PutCiphertext(got)
		reused = s.ctx.GetCiphertext(2, s.params.Scale)
	}
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

// TestDropLevelKeepsRows checks that DropLevel keeps the message and every
// row attached on both flavors, and that a pooled ciphertext grown back to
// its old level after a recycle allocates nothing.
func TestDropLevelKeepsRows(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(78))
	values := randomComplex(rng, s.params.Slots(), 1)
	top := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, top, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	for _, c := range []*Ciphertext{s.ctx.CopyPooled(ct), ct.CopyNew(s.ctx)} {
		row := &c.C1.Coeffs[top][0]
		c.DropLevel(1)
		if c.Level != 1 || len(c.C0.Coeffs) != top+1 || len(c.C1.Coeffs) != top+1 || &c.C1.Coeffs[top][0] != row {
			t.Fatalf("pooled=%v: DropLevel left level %d with %d/%d rows, want level 1 with %d attached",
				c.Pooled(), c.Level, len(c.C0.Coeffs), len(c.C1.Coeffs), top+1)
		}
		dec := s.encoder.Decode(s.dec.DecryptNew(c))
		if e := maxErr(dec, values); e > 1e-6 {
			t.Fatalf("pooled=%v: DropLevel changed the message: %g", c.Pooled(), e)
		}
		s.ctx.PutCiphertext(c)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; allocation counts say nothing")
	}
	allocs := testing.AllocsPerRun(20, func() {
		c := s.ctx.GetCiphertextNoZero(top, s.params.Scale)
		c.DropLevel(0)
		s.ctx.PutCiphertext(c)
	})
	if allocs != 0 {
		t.Fatalf("growing a recycled ciphertext back to level %d allocated %.1f times per run, want 0", top, allocs)
	}
}

// TestPooledRowAccounting checks that a fresh pooled ciphertext counts each
// row it grows as one get and one miss of the q-ring's row kind, and that a
// recycled one that already holds the rows counts none.
func TestPooledRowAccounting(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	var st telemetry.ContextStats
	s.ctx.SetStats(&st)
	defer s.ctx.SetStats(nil)
	rows := func() (int64, int64) { return st.PoolQ.RowGets.Load(), st.PoolQ.RowMisses.Load() }
	top := s.params.MaxLevel()

	ct := s.ctx.GetCiphertext(top, s.params.Scale)
	if g, m := rows(); g != int64(2*(top+1)) || m != g {
		t.Fatalf("fresh ciphertext at level %d counted %d row gets / %d misses, want %d each", top, g, m, 2*(top+1))
	}
	// Under the race detector sync.Pool drops a quarter of all Puts at
	// random; retry with the fresh ciphertext a dropped Put leaves behind.
	for round := 0; ; round++ {
		s.ctx.PutCiphertext(ct)
		g0, m0 := rows()
		got := s.ctx.GetCiphertext(top-1, s.params.Scale)
		g, m := rows()
		if got == ct {
			if g != g0 || m != m0 {
				t.Fatalf("recycled ciphertext counted %d row gets / %d misses, want none", g-g0, m-m0)
			}
			return
		}
		if g-g0 != int64(2*top) || m-m0 != int64(2*top) {
			t.Fatalf("fresh ciphertext at level %d counted %d row gets / %d misses, want %d each", top-1, g-g0, m-m0, 2*top)
		}
		if round == 8 {
			t.Fatal("pool did not recycle a returned ciphertext")
		}
		ct = got
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
