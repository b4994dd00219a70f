package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"bts/internal/ckks"
)

// seededCiphertext encrypts a seeded random message at the given level.
func seededCiphertext(t testing.TB, ctx *ckks.Context, sk *ckks.SecretKey, level int, seed int64) *ckks.Ciphertext {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	values := make([]complex128, ctx.Params.Slots())
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	pt, err := ckks.NewEncoder(ctx).Encode(values, level, ctx.Params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptorSK(ctx, sk, seed).EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestWireBytesUnchanged pins the encoding of seeded objects of every
// envelope kind to SHA-256 hashes: the bytes on the wire are the protocol,
// so an encoder rewrite must reproduce them exactly.
func TestWireBytesUnchanged(t *testing.T) {
	ctx, kg, sk := testContext(t)
	c := NewCodec(ctx)
	maxLevel := ctx.Params.MaxLevel()
	blobs := map[string]func() ([]byte, error){}
	for _, level := range []int{0, maxLevel / 2, maxLevel} {
		ct := seededCiphertext(t, ctx, sk, level, int64(100+level))
		blobs[fmt.Sprintf("ciphertext/level%d", level)] = func() ([]byte, error) { return c.MarshalCiphertext(ct) }
	}
	rlk := kg.GenRelinearizationKey(sk)
	blobs["switching-key"] = func() ([]byte, error) { return c.MarshalSwitchingKey(rlk) }
	rtks := kg.GenRotationKeys(sk, []int{1, 2, 5}, true)
	blobs["rotation-key-set"] = func() ([]byte, error) { return c.MarshalRotationKeySet(rtks) }

	want := map[string]string{
		"ciphertext/level0": "7911a46c3346c36edc132be4e350f2402a73cfaa5363f6b0157b6a5a207a2c36",
		"ciphertext/level1": "e384bc25ed502eb07e0a0ae93920293b0129ae4fab92f4c1173b0459d4d24909",
		"ciphertext/level3": "237a43c4f381303b94012842bed109fd707f53386f461b3581b3ca149c1ed196",
		"switching-key":     "8afee80f1896f57e438df0720fa315d1d58e50b8e37252084166472c7e80918b",
		"rotation-key-set":  "d62e3297126ab8e4b74458f3b64e60060f6282ba2090df37358cbcb3fdc296e3",
	}
	for name, marshal := range blobs {
		b, err := marshal()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %d bytes hash to %s, want %s", name, len(b), got, want[name])
		}
	}
}

// TestCodecAllocs bounds the allocations of the ciphertext hot path: one
// exact-size envelope per write, and a pooled read that reuses its buffer
// and its ciphertext.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	ctx, _, sk := testContext(t)
	c := NewPooledCodec(ctx)
	ct := seededCiphertext(t, ctx, sk, ctx.Params.MaxLevel(), 3)
	b, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	w := testing.AllocsPerRun(50, func() {
		if err := c.WriteCiphertext(io.Discard, ct); err != nil {
			t.Fatal(err)
		}
	})
	rd := bytes.NewReader(b)
	r := testing.AllocsPerRun(50, func() {
		rd.Reset(b)
		got, err := c.ReadCiphertext(rd)
		if err != nil {
			t.Fatal(err)
		}
		ctx.PutCiphertext(got)
	})
	t.Logf("allocations: WriteCiphertext %.1f, pooled ReadCiphertext %.1f", w, r)
	if w > 1 {
		t.Errorf("WriteCiphertext makes %.1f allocations, want at most 1", w)
	}
	if r > 3 {
		t.Errorf("pooled ReadCiphertext makes %.1f allocations, want at most 3", r)
	}
}

// TestPooledReadDoesNotAlias decodes A, then B through the same codec and
// checks that A still holds its own words: no decoded object may share
// memory with the read buffer the codec reuses.
func TestPooledReadDoesNotAlias(t *testing.T) {
	ctx, kg, sk := testContext(t)
	for _, c := range []*Codec{NewCodec(ctx), NewPooledCodec(ctx)} {
		level := ctx.Params.MaxLevel()
		a, bb := seededCiphertext(t, ctx, sk, level, 21), seededCiphertext(t, ctx, sk, level, 22)
		ea, err := c.MarshalCiphertext(a)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := c.MarshalCiphertext(bb)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := c.ReadCiphertext(bytes.NewReader(ea))
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := c.ReadCiphertext(bytes.NewReader(eb))
		if err != nil {
			t.Fatal(err)
		}
		if !ctx.RingQ.Equal(gotA.C0, a.C0, level) || !ctx.RingQ.Equal(gotA.C1, a.C1, level) {
			t.Fatal("decoding B changed the words of A")
		}
		if !ctx.RingQ.Equal(gotB.C0, bb.C0, level) || !ctx.RingQ.Equal(gotB.C1, bb.C1, level) {
			t.Fatal("B decoded wrong")
		}
		ctx.PutCiphertext(gotA)
		ctx.PutCiphertext(gotB)
	}

	c := NewPooledCodec(ctx)
	ka, kb := kg.GenRelinearizationKey(sk), kg.GenRelinearizationKey(sk)
	ea, err := c.MarshalSwitchingKey(ka)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := c.MarshalSwitchingKey(kb)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := c.ReadSwitchingKey(bytes.NewReader(ea))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadSwitchingKey(bytes.NewReader(eb)); err != nil {
		t.Fatal(err)
	}
	lq, lp := ctx.RingQ.MaxLevel(), ctx.RingP.MaxLevel()
	for j := range ka.B {
		if !ctx.RingQ.Equal(gotA.B[j].Q, ka.B[j].Q, lq) || !ctx.RingP.Equal(gotA.B[j].P, ka.B[j].P, lp) {
			t.Fatalf("decoding key B changed group %d of key A", j)
		}
	}
	if gotA.Seed != ka.Seed {
		t.Fatal("decoding key B changed the seed of key A")
	}
}

// TestHostileHeaderCostsSenderBytes sends a header that declares the largest
// ciphertext payload a LogN 14 context accepts, then 1 KiB and EOF. The read
// must fail, and the decoder may not have committed memory for the declared
// length: the buffer grows only as bytes arrive.
func TestHostileHeaderCostsSenderBytes(t *testing.T) {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     14,
		LogQ:     []int{50, 40, 40, 40, 40, 40, 40, 40},
		LogP:     50,
		Dnum:     2,
		LogScale: 40,
		H:        64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPooledCodec(ctx)
	declared := c.maxPayload(TypeCiphertext)
	msg := make([]byte, headerSize+1024)
	copy(msg, magic[:])
	msg[4] = Version
	msg[5] = byte(TypeCiphertext)
	msg[6], msg[7], msg[8], msg[9] = byte(declared), byte(declared>>8), byte(declared>>16), byte(declared>>24)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.ReadCiphertext(bytes.NewReader(msg))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated envelope decoded")
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("declared %d payload bytes, sent 1024: %v; allocated %d bytes", declared, err, grew)
	if grew >= 256<<10 {
		t.Fatalf("a lying header made the decoder allocate %d bytes, want < 256 KiB", grew)
	}
}
