package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"bts/internal/ckks"
)

// testContext builds a small context plus key material shared by the tests.
func testContext(t testing.TB) (*ckks.Context, *ckks.KeyGenerator, *ckks.SecretKey) {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{45, 38, 38, 38},
		LogP:     46,
		Dnum:     2,
		LogScale: 38,
		H:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 4242)
	return ctx, kg, kg.GenSecretKey()
}

func TestCiphertextRoundTrip(t *testing.T) {
	ctx, _, sk := testContext(t)
	c := NewCodec(ctx)
	enc := ckks.NewEncoder(ctx)
	encryptor := ckks.NewEncryptorSK(ctx, sk, 7)
	rng := rand.New(rand.NewSource(2))
	for level := 0; level <= ctx.Params.MaxLevel(); level++ {
		values := make([]complex128, ctx.Params.Slots())
		for i := range values {
			values[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		pt, err := enc.Encode(values, level, ctx.Params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := encryptor.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := c.MarshalCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		ct2, err := c.UnmarshalCiphertext(cb)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if ct2.Level != ct.Level || ct2.Scale != ct.Scale ||
			!ctx.RingQ.Equal(ct2.C0, ct.C0, level) || !ctx.RingQ.Equal(ct2.C1, ct.C1, level) {
			t.Fatalf("level %d: ciphertext round trip mismatch", level)
		}
		cb2, err := c.MarshalCiphertext(ct2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cb, cb2) {
			t.Fatalf("level %d: ciphertext re-marshal not bit-exact", level)
		}
	}
}

func TestPooledCodecCiphertext(t *testing.T) {
	ctx, _, sk := testContext(t)
	c := NewCodec(ctx)
	enc := ckks.NewEncoder(ctx)
	encryptor := ckks.NewEncryptorSK(ctx, sk, 8)
	pt, _ := enc.Encode([]complex128{0.5, -0.5}, ctx.Params.MaxLevel(), ctx.Params.Scale)
	ct, _ := encryptor.EncryptNew(pt)
	b, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.UnmarshalCiphertext(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Pooled() {
		t.Fatal("codec returned a plain ciphertext")
	}
	if !ctx.RingQ.Equal(got.C0, ct.C0, ct.Level) || !ctx.RingQ.Equal(got.C1, ct.C1, ct.Level) {
		t.Fatal("pooled decode mismatch")
	}
	ctx.PutCiphertext(got)
}

func TestSwitchingKeyAndRotationKeySetRoundTrip(t *testing.T) {
	ctx, kg, sk := testContext(t)
	c := NewCodec(ctx)
	rlk := kg.GenRelinearizationKey(sk)
	b, err := c.MarshalSwitchingKey(rlk)
	if err != nil {
		t.Fatal(err)
	}
	rlk2, err := c.UnmarshalSwitchingKey(b)
	if err != nil {
		t.Fatal(err)
	}
	lq, lp := ctx.RingQ.MaxLevel(), ctx.RingP.MaxLevel()
	if rlk2.Seed != rlk.Seed || len(rlk2.B) != len(rlk.B) {
		t.Fatal("switching key seed or group count mismatch")
	}
	for j := range rlk.B {
		if !ctx.RingQ.Equal(rlk2.B[j].Q, rlk.B[j].Q, lq) || !ctx.RingP.Equal(rlk2.B[j].P, rlk.B[j].P, lp) {
			t.Fatalf("switching key group %d mismatch", j)
		}
	}
	// Only the b halves and the seed travel: the envelope is the key's
	// in-memory footprint plus framing (header, dnum, per-polynomial N and
	// row count).
	if want := int64(headerSize+4) + rlk.Bytes() + int64(len(rlk.B))*2*8; int64(len(b)) != want {
		t.Fatalf("switching key envelope is %d bytes, want %d", len(b), want)
	}

	rtks := kg.GenRotationKeys(sk, []int{1, 2, 4}, true)
	rb, err := c.MarshalRotationKeySet(rtks)
	if err != nil {
		t.Fatal(err)
	}
	rtks2, err := c.UnmarshalRotationKeySet(rb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtks2.Keys) != len(rtks.Keys) {
		t.Fatalf("rotation key set size %d, want %d", len(rtks2.Keys), len(rtks.Keys))
	}
	rb2, err := c.MarshalRotationKeySet(rtks2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, rb2) {
		t.Fatal("rotation key set re-marshal not bit-exact")
	}

	// Decoded keys must actually evaluate: rotate+relinearize and decrypt.
	enc := ckks.NewEncoder(ctx)
	encryptor := ckks.NewEncryptorSK(ctx, sk, 10)
	eval := ckks.NewEvaluator(ctx, enc, rlk2, rtks2)
	values := make([]complex128, ctx.Params.Slots())
	for i := range values {
		values[i] = complex(float64(i%7)/7, 0)
	}
	pt, _ := enc.Encode(values, ctx.Params.MaxLevel(), ctx.Params.Scale)
	ct, _ := encryptor.EncryptNew(pt)
	rot := eval.Rotate(ct, 2)
	prod := eval.Rescale(eval.MulRelin(rot, ct))
	dec := ckks.NewDecryptor(ctx, sk)
	got := enc.Decode(dec.DecryptNew(prod))
	slots := ctx.Params.Slots()
	for i := 0; i < 8; i++ {
		want := values[(i+2)%slots] * values[i]
		if d := real(got[i]) - real(want); d > 1e-4 || d < -1e-4 {
			t.Fatalf("slot %d: got %g want %g", i, real(got[i]), real(want))
		}
	}
}

// TestMalformedInputs exercises the main rejection paths explicitly (the fuzz
// target covers the long tail).
func TestMalformedInputs(t *testing.T) {
	ctx, kg, sk := testContext(t)
	c := NewCodec(ctx)
	enc := ckks.NewEncoder(ctx)
	encryptor := ckks.NewEncryptorSK(ctx, sk, 11)
	pt, _ := enc.Encode([]complex128{1}, 1, ctx.Params.Scale)
	ct, _ := encryptor.EncryptNew(pt)
	good, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"bad version": func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(),
		"truncated header":  good[:5],
		"truncated payload": good[:len(good)-3],
		"oversized length": func() []byte {
			b := append([]byte(nil), good...)
			b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0xff
			return b
		}(),
		"level above max": func() []byte {
			b := append([]byte(nil), good...)
			b[10] = 200
			return b
		}(),
		"residue out of range": func() []byte {
			b := append([]byte(nil), good...)
			// First residue word of c0 (header 10 + level 4 + scale 8 + poly hdr 8).
			for i := 0; i < 8; i++ {
				b[30+i] = 0xff
			}
			return b
		}(),
		"trailing garbage": func() []byte {
			b := append([]byte(nil), good...)
			b = append(b, 1, 2, 3)
			// Grow the declared length so the cursor sees the extra bytes.
			l := uint32(len(b) - headerSize)
			b[6], b[7], b[8], b[9] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := c.UnmarshalCiphertext(b); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}

	// Wrong type: every decoder gets a well-formed envelope of its own kind
	// retagged 1, 2 or 4, the retired polynomial, plaintext and public-key
	// tags.
	swk, err := c.MarshalSwitchingKey(kg.GenRelinearizationKey(sk))
	if err != nil {
		t.Fatal(err)
	}
	rtks, err := c.MarshalRotationKeySet(kg.GenRotationKeys(sk, []int{1}, false))
	if err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name   string
		good   []byte
		decode func([]byte) error
	}{
		{"Ciphertext", good, func(b []byte) error { _, err := c.UnmarshalCiphertext(b); return err }},
		{"SwitchingKey", swk, func(b []byte) error { _, err := c.UnmarshalSwitchingKey(b); return err }},
		{"RotationKeySet", rtks, func(b []byte) error { _, err := c.UnmarshalRotationKeySet(b); return err }},
	}
	for _, d := range decoders {
		if err := d.decode(d.good); err != nil {
			t.Fatalf("%s: untouched envelope rejected: %v", d.name, err)
		}
		for _, tag := range []byte{1, 2, 4} {
			b := append([]byte(nil), d.good...)
			b[5] = tag
			if err := d.decode(b); err == nil {
				t.Errorf("%s retagged %d: expected error, got nil", d.name, tag)
			}
		}
	}
}
