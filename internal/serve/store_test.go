package serve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bts/internal/ckks"
)

func testStore(t *testing.T) (*Store, *ckks.Context) {
	t.Helper()
	params := testParams(t)
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st, ctx
}

// TestStoreRoundTrip saves a session's key set and loads it back, checking
// the keys decode to working material and the accounting value survives.
func TestStoreRoundTrip(t *testing.T) {
	st, ctx := testStore(t)
	kg := ckks.NewKeyGenerator(ctx, 42)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, []int{1, 2}, true)
	keyBytes := keySetBytes(rlk, rtks)

	if err := st.Save("tenant", rlk, rtks, keyBytes); err != nil {
		t.Fatal(err)
	}
	gotRlk, gotRtks, gotBytes, err := st.Load("tenant")
	if err != nil {
		t.Fatal(err)
	}
	if gotRlk == nil || gotRtks == nil {
		t.Fatal("loaded session lost a key")
	}
	if gotBytes != keyBytes {
		t.Fatalf("key bytes %d, want %d", gotBytes, keyBytes)
	}
	if len(gotRtks.Keys) != len(rtks.Keys) {
		t.Fatalf("rotation keys %d, want %d", len(gotRtks.Keys), len(rtks.Keys))
	}

	// List sees the session without touching blobs.
	manifests, skipped := st.List()
	if len(manifests) != 1 || manifests[0].Name != "tenant" {
		t.Fatalf("list = %v (skipped %v), want [tenant]", manifests, skipped)
	}

	// A keyless save (rotation-only tenant) round-trips nils.
	if err := st.Save("rot-only", nil, rtks, keySetBytes(nil, rtks)); err != nil {
		t.Fatal(err)
	}
	r2, k2, _, err := st.Load("rot-only")
	if err != nil {
		t.Fatal(err)
	}
	if r2 != nil || k2 == nil {
		t.Fatal("rotation-only session round-trip wrong")
	}

	// Delete removes it; a second delete is a no-op.
	if err := st.Delete("tenant"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.Load("tenant"); err == nil {
		t.Fatal("load after delete should fail")
	}
	if err := st.Delete("tenant"); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRejectsCorruption flips bytes in each stored artifact and checks
// every corruption surfaces as a typed store error, never a bad key.
func TestStoreRejectsCorruption(t *testing.T) {
	st, ctx := testStore(t)
	kg := ckks.NewKeyGenerator(ctx, 43)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	if err := st.Save("t", rlk, nil, keySetBytes(rlk, nil)); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(st.root, "sessions", hex.EncodeToString([]byte("t")))

	corrupt := func(file string, mutate func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, file)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, lerr := st.Load("t")
		if lerr == nil {
			t.Fatalf("%s corruption not detected", file)
		}
		if Code(lerr) != CodeStore {
			t.Fatalf("%s corruption: code %q, want store", file, Code(lerr))
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Blob bit flip → checksum mismatch.
	corrupt(rlkFile, func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b })
	// Blob truncation → size mismatch.
	corrupt(rlkFile, func(b []byte) []byte { return b[:len(b)-7] })
	// Manifest garbage → decode error.
	corrupt(manifestFile, func(b []byte) []byte { return []byte("{not json") })
	// Manifest naming another session.
	corrupt(manifestFile, func(b []byte) []byte {
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		m.Name = "other"
		out, _ := json.Marshal(m)
		return out
	})
	// Foreign parameter fingerprint.
	corrupt(manifestFile, func(b []byte) []byte {
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		m.ParamsFP = m.ParamsFP[1:] + "0"
		out, _ := json.Marshal(m)
		return out
	})

	// After restoring everything, the session loads again.
	if _, _, _, err := st.Load("t"); err != nil {
		t.Fatalf("restored session fails to load: %v", err)
	}
}

// TestStoreAtomicReplace re-saves a session and checks the new content wins
// completely (no mix of old and new files).
func TestStoreAtomicReplace(t *testing.T) {
	st, ctx := testStore(t)
	kg := ckks.NewKeyGenerator(ctx, 44)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, []int{1}, true)

	// v1: both keys. v2: rotation keys only — rlk.bin must be gone.
	if err := st.Save("t", rlk, rtks, keySetBytes(rlk, rtks)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("t", nil, rtks, keySetBytes(nil, rtks)); err != nil {
		t.Fatal(err)
	}
	gotRlk, gotRtks, _, err := st.Load("t")
	if err != nil {
		t.Fatal(err)
	}
	if gotRlk != nil || gotRtks == nil {
		t.Fatal("replace left stale key material")
	}
	dir := filepath.Join(st.root, "sessions", hex.EncodeToString([]byte("t")))
	if _, err := os.Stat(filepath.Join(dir, rlkFile)); !os.IsNotExist(err) {
		t.Fatal("stale rlk.bin survived the atomic replace")
	}
	// No temp dirs left behind.
	entries, err := os.ReadDir(filepath.Join(st.root, "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != hex.EncodeToString([]byte("t")) {
			t.Fatalf("unexpected leftover %q in store", e.Name())
		}
	}
}

// TestServerRestartRehydrates is the durability integration test: sessions
// opened on one Server instance are served — with identical results — by a
// second instance pointed at the same store, without re-uploading keys.
func TestServerRestartRehydrates(t *testing.T) {
	params := testParams(t)
	dir := t.TempDir()
	cl := newClientSide(t, params, 900, []int{1})

	srv1, err := New(Config{Params: params, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.OpenSession("durable", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	values := make([]complex128, params.Slots())
	for i := range values {
		values[i] = complex(float64(i%7)/7, 0)
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)
	ct1, _ := cl.enc.EncryptNew(pt)
	ops := []Op{{Kind: OpRotate, A: 0, By: 1}, {Kind: OpMul, A: 1, B: 0}, {Kind: OpRescale, A: 2}}
	res1, err := submitSlots(context.Background(), srv1, "durable", ops, []*ckks.Ciphertext{ct1})
	if err != nil {
		t.Fatal(err)
	}
	want := cl.encoder.Decode(cl.dec.DecryptNew(res1))
	srv1.Close()

	// "Restart": a fresh server on the same store. The session must be
	// addressable immediately and produce a bit-compatible result.
	srv2, err := New(Config{Params: params, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	st := srv2.Stats()
	if len(st.Sessions) != 1 || st.Sessions[0].Session != "durable" {
		t.Fatalf("restarted server lost the session: %+v", st.Sessions)
	}
	if st.Sessions[0].Resident {
		t.Fatal("restarted session should be cold until first use")
	}
	if !st.Sessions[0].Durable {
		t.Fatal("restarted session not marked durable")
	}
	ct2, _ := cl.enc.EncryptNew(pt)
	res2, err := submitSlots(context.Background(), srv2, "durable", ops, []*ckks.Ciphertext{ct2})
	if err != nil {
		t.Fatal(err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(res2))
	if e := maxAbsErr(got, want); e > 1e-9 {
		t.Fatalf("restarted session result diverges by %g", e)
	}
	if !srv2.Stats().Sessions[0].Resident {
		t.Fatal("session not resident after first use")
	}

	// CloseSession removes the durable state too: a third server sees nothing.
	srv2.CloseSession("durable")
	srv3, err := New(Config{Params: params, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if n := len(srv3.Stats().Sessions); n != 0 {
		t.Fatalf("closed session resurrected: %d sessions", n)
	}
}

// FuzzDecodeManifest asserts the manifest decoder never panics and never
// accepts a manifest whose blob references could escape the session
// directory.
func FuzzDecodeManifest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"name":"t","params_fp":"00"}`))
	f.Add([]byte(`{"version":1,"name":"t","created_unix":1,"params_fp":"` +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		`","key_bytes":8,"rlk":{"file":"rlk.bin","bytes":8,"crc32c":1}}`))
	f.Add([]byte(`{"version":1,"name":"t","params_fp":"` +
		"0000000000000000000000000000000000000000000000000000000000000000" +
		`","rlk":{"file":"../../etc/passwd","bytes":1,"crc32c":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Version != manifestVersion {
			t.Fatalf("accepted manifest version %d", m.Version)
		}
		if m.Name == "" || len(m.Name) > maxSessionName {
			t.Fatalf("accepted bad name %q", m.Name)
		}
		for _, ref := range []*BlobRef{m.Rlk, m.Rtks} {
			if ref == nil {
				continue
			}
			if ref.File != filepath.Base(ref.File) || ref.File == "" || ref.File == "." || ref.File == ".." {
				t.Fatalf("accepted escaping blob file %q", ref.File)
			}
			if ref.Bytes <= 0 {
				t.Fatalf("accepted blob size %d", ref.Bytes)
			}
		}
	})
}

// FuzzLoadRegisters feeds arbitrary bytes to Store.LoadRegisters as a
// session's register file: it must never panic, and every error must be a
// CodeStore error. With fixCRC the input is taken as the file body and the
// checksum trailer is appended, so mutations get past the CRC to the entry
// decoder.
func FuzzLoadRegisters(f *testing.F) {
	params := testParams(f)
	ctx, err := ckks.NewContext(params)
	if err != nil {
		f.Fatal(err)
	}
	st, err := OpenStore(f.TempDir(), ctx)
	if err != nil {
		f.Fatal(err)
	}
	const name = "fuzz"
	if err := st.Save(name, nil, nil, 0); err != nil {
		f.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 5)
	enc := ckks.NewEncryptorSK(ctx, kg.GenSecretKey(), 6)
	pt, _ := ckks.NewEncoder(ctx).Encode([]complex128{0.5}, 1, params.Scale)
	ct, _ := enc.EncryptNew(pt)
	if err := st.SaveRegisters(name, map[string]*ckks.Ciphertext{"a": ct, "bb": ct}); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.sessionDir(name), regsFile)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	body := good[:len(good)-4]
	f.Add(good, false)
	f.Add(body, true)
	f.Add(body[:len(regsMagic)+4], true)
	// A count of 2^32−1 over a short file: sizing the map by the count alone
	// is a fatal out-of-memory, not an error.
	huge := append([]byte(nil), body...)
	copy(huge[len(regsMagic):], []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(huge, true)
	for _, off := range []int{len(regsMagic), len(regsMagic) + 4, len(regsMagic) + 6, len(regsMagic) + 8, len(regsMagic) + 12, len(body) - 1} {
		mut := append([]byte(nil), body...)
		mut[off] ^= 0xff
		f.Add(mut, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			data = le32(append([]byte(nil), data...), crc32.Checksum(data, crcTable))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		regs, err := st.LoadRegisters(name)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) || se.Code != CodeStore {
				t.Fatalf("LoadRegisters error %v is not a %s error", err, CodeStore)
			}
			if regs != nil {
				t.Fatal("registers returned alongside an error")
			}
			return
		}
		for n, ct := range regs {
			if ct == nil || ct.Level < 0 || ct.Level > params.MaxLevel() {
				t.Fatalf("register %q decoded to an invalid ciphertext", n)
			}
		}
	})
}
