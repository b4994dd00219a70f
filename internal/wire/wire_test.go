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

func TestPolyRoundTrip(t *testing.T) {
	ctx, _, _ := testContext(t)
	c := NewCodec(ctx)
	rng := rand.New(rand.NewSource(1))
	for level := 0; level <= ctx.RingQ.MaxLevel(); level++ {
		p := ctx.RingQ.NewPolyLevel(level)
		ctx.RingQ.SampleUniform(rng, p, level)
		b, err := c.MarshalPoly(p, level)
		if err != nil {
			t.Fatal(err)
		}
		got, gotLevel, err := c.UnmarshalPoly(b)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if gotLevel != level || !ctx.RingQ.Equal(got, p, level) {
			t.Fatalf("level %d: poly round trip mismatch", level)
		}
		b2, err := c.MarshalPoly(got, gotLevel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("level %d: re-marshal not bit-exact", level)
		}
	}
}

func TestPlaintextCiphertextRoundTrip(t *testing.T) {
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
		pb, err := c.MarshalPlaintext(pt)
		if err != nil {
			t.Fatal(err)
		}
		pt2, err := c.UnmarshalPlaintext(pb)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if pt2.Level != pt.Level || pt2.Scale != pt.Scale || !ctx.RingQ.Equal(pt2.Value, pt.Value, level) {
			t.Fatalf("level %d: plaintext round trip mismatch", level)
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
	c := NewPooledCodec(ctx)
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
		t.Fatal("pooled codec returned a plain ciphertext")
	}
	if !ctx.RingQ.Equal(got.C0, ct.C0, ct.Level) || !ctx.RingQ.Equal(got.C1, ct.C1, ct.Level) {
		t.Fatal("pooled decode mismatch")
	}
	ctx.PutCiphertext(got)
}

func TestPublicKeyRoundTrip(t *testing.T) {
	ctx, kg, sk := testContext(t)
	c := NewCodec(ctx)
	pk := kg.GenPublicKey(sk)
	b, err := c.MarshalPublicKey(pk)
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := c.UnmarshalPublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	lvl := ctx.RingQ.MaxLevel()
	if !ctx.RingQ.Equal(pk2.Value[0], pk.Value[0], lvl) || !ctx.RingQ.Equal(pk2.Value[1], pk.Value[1], lvl) {
		t.Fatal("public key round trip mismatch")
	}
	// A decoded public key must be usable for encryption.
	enc := ckks.NewEncoder(ctx)
	pt, _ := enc.Encode([]complex128{0.25}, lvl, ctx.Params.Scale)
	encryptor := ckks.NewEncryptorPK(ctx, pk2, 9)
	ct, err := encryptor.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	dec := ckks.NewDecryptor(ctx, sk)
	vals := enc.Decode(dec.DecryptNew(ct))
	if r := real(vals[0]); r < 0.24 || r > 0.26 {
		t.Fatalf("decoded pk does not encrypt correctly: got %g", r)
	}
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
	ctx, _, sk := testContext(t)
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
		"wrong type": func() []byte {
			b := append([]byte(nil), good...)
			b[5] = byte(TypePublicKey)
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
}
