package wire

import (
	"bytes"
	"sync"
	"testing"
	"testing/iotest"

	"bts/internal/ckks"
)

// fuzzCodec is built once: context construction (prime generation, NTT
// tables) is far too slow per fuzz iteration.
var fuzzCodec = struct {
	once sync.Once
	c    *Codec
	seed [][]byte // ciphertext envelopes
	swk  [][]byte // switching-key envelopes
	rtks [][]byte // rotation-key-set envelopes
}{}

// corruptions returns good followed by truncations and byte flips of it at
// the envelope fields and at the given payload offsets.
func corruptions(good []byte, offsets ...int) [][]byte {
	out := [][]byte{good}
	for _, cut := range []int{0, 4, headerSize, headerSize + 4, len(good) / 2, len(good) - 1} {
		out = append(out, good[:cut])
	}
	for _, off := range append([]int{0, 4, 5, 6, 10, 14, 22, len(good) - 1}, offsets...) {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0xff
		out = append(out, mut)
	}
	return out
}

func getFuzzCodec(f *testing.F) *Codec {
	fuzzCodec.once.Do(func() {
		params, err := ckks.NewParameters(ckks.ParametersLiteral{
			LogN:     4,
			LogQ:     []int{30, 25},
			LogP:     31,
			Dnum:     1,
			LogScale: 25,
			H:        4,
		})
		if err != nil {
			f.Fatal(err)
		}
		ctx, err := ckks.NewContext(params)
		if err != nil {
			f.Fatal(err)
		}
		fuzzCodec.c = NewCodec(ctx)

		// Seed corpus: one valid ciphertext plus systematic corruptions.
		kg := ckks.NewKeyGenerator(ctx, 1)
		sk := kg.GenSecretKey()
		enc := ckks.NewEncoder(ctx)
		encryptor := ckks.NewEncryptorSK(ctx, sk, 2)
		pt, _ := enc.Encode([]complex128{0.5}, params.MaxLevel(), params.Scale)
		ct, _ := encryptor.EncryptNew(pt)
		good, err := fuzzCodec.c.MarshalCiphertext(ct)
		if err != nil {
			f.Fatal(err)
		}
		fuzzCodec.seed = corruptions(good)

		// Key envelopes (version 2): flips in the group count, the seed, the
		// first polynomial's N and row count, and its first residue.
		swk, err := fuzzCodec.c.MarshalSwitchingKey(kg.GenRelinearizationKey(sk))
		if err != nil {
			f.Fatal(err)
		}
		fuzzCodec.swk = corruptions(swk, headerSize+4, headerSize+4+31, headerSize+36, headerSize+40, headerSize+44)
		rtks, err := fuzzCodec.c.MarshalRotationKeySet(kg.GenRotationKeys(sk, []int{1, 2}, false))
		if err != nil {
			f.Fatal(err)
		}
		// Offsets past count (4) and the first Galois element (8).
		fuzzCodec.rtks = corruptions(rtks, headerSize+4, headerSize+12, headerSize+16, headerSize+48, headerSize+52, len(rtks)/2)
	})
	return fuzzCodec.c
}

// FuzzUnmarshalCiphertext proves the decoder's contract: arbitrary input
// either yields a valid ciphertext or an error — never a panic, never an
// out-of-range write. The in-place decoder and the stream decoder, fed the
// same bytes a few at a time, must agree: both fail, or both decode the
// same words.
func FuzzUnmarshalCiphertext(f *testing.F) {
	c := getFuzzCodec(f)
	for _, s := range fuzzCodec.seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := c.UnmarshalCiphertext(data)
		streamed, serr := c.ReadCiphertext(iotest.HalfReader(bytes.NewReader(data)))
		if (err == nil) != (serr == nil) {
			t.Fatalf("in-place decode returned %v, stream decode %v", err, serr)
		}
		if err != nil {
			if ct != nil || streamed != nil {
				t.Fatal("non-nil ciphertext alongside error")
			}
			return
		}
		rq := c.Context().RingQ
		if streamed.Level != ct.Level || streamed.Scale != ct.Scale ||
			!rq.Equal(streamed.C0, ct.C0, ct.Level) || !rq.Equal(streamed.C1, ct.C1, ct.Level) {
			t.Fatal("in-place and stream decodes differ")
		}
		// Whatever decoded must satisfy the context's invariants.
		if ct.Level < 0 || ct.Level > c.Context().RingQ.MaxLevel() {
			t.Fatalf("decoded level %d out of range", ct.Level)
		}
		if ct.C0.Levels() < ct.Level || ct.C1.Levels() < ct.Level {
			t.Fatal("decoded ciphertext missing residue rows")
		}
		for i := 0; i <= ct.Level; i++ {
			q := c.Context().RingQ.Moduli[i].Q
			for j := 0; j < c.Context().RingQ.N; j++ {
				if ct.C0.Coeffs[i][j] >= q || ct.C1.Coeffs[i][j] >= q {
					t.Fatal("decoded residue out of range")
				}
			}
		}
	})
}

// checkKey asserts a decoded switching key has the context's shape: dnum
// groups, each with a full Q chain and a full P chain of N-word rows.
func checkKey(t *testing.T, c *Codec, swk *ckks.SwitchingKey) {
	t.Helper()
	rq, rp := c.Context().RingQ, c.Context().RingP
	if len(swk.B) != c.Context().Params.Dnum {
		t.Fatalf("decoded key has %d groups, dnum is %d", len(swk.B), c.Context().Params.Dnum)
	}
	for j, b := range swk.B {
		if len(b.Q.Coeffs) != len(rq.Moduli) || len(b.P.Coeffs) != len(rp.Moduli) {
			t.Fatalf("group %d: %d Q rows and %d P rows, want %d and %d", j, len(b.Q.Coeffs), len(b.P.Coeffs), len(rq.Moduli), len(rp.Moduli))
		}
		for _, row := range append(append([][]uint64{}, b.Q.Coeffs...), b.P.Coeffs...) {
			if len(row) != rq.N {
				t.Fatalf("group %d: row of %d words, want %d", j, len(row), rq.N)
			}
		}
	}
}

// FuzzUnmarshalSwitchingKey holds the key decoder to the ciphertext
// decoder's contract: never a panic, nothing non-nil beside an error, and an
// accepted key has full Q and P row counts.
func FuzzUnmarshalSwitchingKey(f *testing.F) {
	c := getFuzzCodec(f)
	for _, s := range fuzzCodec.swk {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		swk, err := c.UnmarshalSwitchingKey(data)
		if err != nil {
			if swk != nil {
				t.Fatal("non-nil switching key alongside error")
			}
			return
		}
		checkKey(t, c, swk)
	})
}

// FuzzUnmarshalRotationKeySet is FuzzUnmarshalSwitchingKey for key sets: on
// success every entry has an odd Galois element below 2N and a full key.
func FuzzUnmarshalRotationKeySet(f *testing.F) {
	c := getFuzzCodec(f)
	for _, s := range fuzzCodec.rtks {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rtks, err := c.UnmarshalRotationKeySet(data)
		if err != nil {
			if rtks != nil {
				t.Fatal("non-nil rotation key set alongside error")
			}
			return
		}
		for g, swk := range rtks.Keys {
			if g%2 == 0 || g >= uint64(2*c.Context().RingQ.N) {
				t.Fatalf("accepted Galois element %d", g)
			}
			checkKey(t, c, swk)
		}
	})
}
