package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/wire"
)

// The durable session store persists every tenant's uploaded evaluation
// keys so a daemon restart (rolling deploy, crash, OOM kill) no longer
// drops sessions — the serving-layer analogue of the paper's key-residency
// argument: the multi-GiB evk set is the expensive thing to re-acquire, so
// it must outlive the process that holds it decoded.
//
// On-disk layout, under the configured root:
//
//	sessions/<hex(name)>/manifest.json   decode-validated JSON manifest
//	sessions/<hex(name)>/rlk.bin         wire SwitchingKey envelope
//	sessions/<hex(name)>/rtks.bin        wire RotationKeySet envelope
//
// Key blobs are the same envelopes the tenant uploaded (canonical
// residues; the Montgomery representation never reaches disk), each
// checksummed (CRC-32C) and size-pinned by the manifest. Writes are
// crash-safe by construction: a session saves into a fresh temporary
// directory (blobs first, each fsynced, manifest last) which is then
// renamed over the final path, so a crash at any point leaves either the
// old complete session or none — never a torn one. A manifest that fails
// decoding, a checksum mismatch, or a fingerprint from a different
// parameter set all surface as typed store errors, never as a panic or a
// wrongly-decoded key.
const (
	manifestVersion = 1
	manifestFile    = "manifest.json"
	rlkFile         = "rlk.bin"
	rtksFile        = "rtks.bin"
	// maxSessionName bounds session names (they become directory names and
	// metric labels).
	maxSessionName = 128
	// maxManifestBytes bounds a manifest file read; real manifests are <1 KiB.
	maxManifestBytes = 1 << 20
)

// crcTable is the Castagnoli polynomial table shared by all checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BlobRef pins one key blob: file name (always a bare basename), exact
// byte length, and CRC-32C of the contents.
type BlobRef struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the per-session metadata record committed last during a
// save; its presence (and validity) is what makes a stored session real.
type Manifest struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	CreatedUnix int64  `json:"created_unix"`
	// ParamsFP fingerprints the CKKS parameter set the keys were encoded
	// under; a store carried across a parameter change is rejected instead
	// of mis-decoded.
	ParamsFP string `json:"params_fp"`
	// KeyBytes is the decoded in-memory footprint of the session's key set
	// (the paper's 2·N·(k+L+1)·dnum words per switching key), used for
	// quota and LRU accounting without decoding anything.
	KeyBytes int64    `json:"key_bytes"`
	Rlk      *BlobRef `json:"rlk,omitempty"`
	Rtks     *BlobRef `json:"rtks,omitempty"`
}

// DecodeManifest strictly decodes and validates a manifest. It never
// panics on corrupt or truncated input (fuzzed: FuzzDecodeManifest) and
// rejects anything that could escape the session directory or lie about
// blob sizes.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("serve: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("serve: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Name == "" || len(m.Name) > maxSessionName {
		return nil, fmt.Errorf("serve: manifest session name of %d bytes outside (0,%d]", len(m.Name), maxSessionName)
	}
	if m.KeyBytes < 0 {
		return nil, fmt.Errorf("serve: manifest key_bytes %d negative", m.KeyBytes)
	}
	if len(m.ParamsFP) != 2*sha256.Size {
		return nil, fmt.Errorf("serve: manifest params fingerprint of %d chars, want %d", len(m.ParamsFP), 2*sha256.Size)
	}
	for _, ref := range []*BlobRef{m.Rlk, m.Rtks} {
		if ref == nil {
			continue
		}
		if ref.File != filepath.Base(ref.File) || ref.File == "." || ref.File == ".." || ref.File == "" {
			return nil, fmt.Errorf("serve: manifest blob file %q is not a bare name", ref.File)
		}
		if ref.Bytes <= 0 || ref.Bytes > 1<<40 {
			return nil, fmt.Errorf("serve: manifest blob of %d bytes outside (0,2^40]", ref.Bytes)
		}
	}
	return &m, nil
}

// paramsFingerprint hashes the fields that determine wire compatibility.
func paramsFingerprint(p ckks.Parameters) string {
	h := sha256.New()
	fmt.Fprintf(h, "logn=%d dnum=%d scale=%v h=%d sigma=%v q=%v p=%v wire=%d",
		p.LogN, p.Dnum, p.Scale, p.H, p.Sigma, p.Q, p.P, wire.Version)
	return hex.EncodeToString(h.Sum(nil))
}

// Store is the durable session store bound to one parameter set. All
// methods are safe for concurrent use on distinct sessions; concurrent
// saves of the same session serialize on the final rename (last writer
// wins with a complete session either way).
type Store struct {
	root  string
	codec *wire.Codec
	fp    string
}

// OpenStore opens (creating if needed) a session store rooted at dir.
func OpenStore(dir string, ctx *ckks.Context) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, errf(CodeStore, "creating session store: %v", err)
	}
	return &Store{root: dir, codec: wire.NewCodec(ctx), fp: paramsFingerprint(ctx.Params)}, nil
}

func (st *Store) sessionDir(name string) string {
	return filepath.Join(st.root, "sessions", hex.EncodeToString([]byte(name)))
}

// Save persists a session's key set: blobs first (fsynced), manifest
// last, all in a temporary directory renamed over the final path.
func (st *Store) Save(name string, rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet, keyBytes int64) error {
	if err := faultinject.Eval("serve.store.save"); err != nil {
		return injectedFaultError(err)
	}
	final := st.sessionDir(name)
	tmp, err := os.MkdirTemp(filepath.Dir(final), ".tmp-*")
	if err != nil {
		return errf(CodeStore, "saving session %q: %v", name, err)
	}
	defer os.RemoveAll(tmp) // no-op after the rename commits

	m := &Manifest{
		Version:     manifestVersion,
		Name:        name,
		CreatedUnix: time.Now().Unix(),
		ParamsFP:    st.fp,
		KeyBytes:    keyBytes,
	}
	if rlk != nil {
		blob, err := st.codec.MarshalSwitchingKey(rlk)
		if err != nil {
			return errf(CodeStore, "encoding relinearization key of %q: %v", name, err)
		}
		if m.Rlk, err = writeBlob(tmp, rlkFile, blob); err != nil {
			return errf(CodeStore, "saving session %q: %v", name, err)
		}
	}
	if rtks != nil {
		blob, err := st.codec.MarshalRotationKeySet(rtks)
		if err != nil {
			return errf(CodeStore, "encoding rotation keys of %q: %v", name, err)
		}
		if m.Rtks, err = writeBlob(tmp, rtksFile, blob); err != nil {
			return errf(CodeStore, "saving session %q: %v", name, err)
		}
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return errf(CodeStore, "encoding manifest of %q: %v", name, err)
	}
	if _, err := writeBlob(tmp, manifestFile, mb); err != nil {
		return errf(CodeStore, "saving session %q: %v", name, err)
	}
	// Commit: replace any previous version of the session, then move the
	// complete temporary directory into place.
	if err := os.RemoveAll(final); err != nil {
		return errf(CodeStore, "replacing session %q: %v", name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return errf(CodeStore, "committing session %q: %v", name, err)
	}
	return nil
}

// writeBlob writes name under dir, fsyncs it, and returns its BlobRef.
func writeBlob(dir, name string, b []byte) (*BlobRef, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &BlobRef{File: name, Bytes: int64(len(b)), CRC32C: crc32.Checksum(b, crcTable)}, nil
}

// readBlob reads and checksum-verifies one manifest-pinned blob.
func (st *Store) readBlob(dir string, ref *BlobRef) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, ref.File))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != ref.Bytes {
		return nil, fmt.Errorf("blob %s is %d bytes, manifest says %d", ref.File, len(b), ref.Bytes)
	}
	if sum := crc32.Checksum(b, crcTable); sum != ref.CRC32C {
		return nil, fmt.Errorf("blob %s checksum %08x, manifest says %08x", ref.File, sum, ref.CRC32C)
	}
	return b, nil
}

// Load reads, verifies and decodes a stored session's key set. The
// returned keyBytes is the manifest's decoded-footprint accounting value.
func (st *Store) Load(name string) (rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet, keyBytes int64, err error) {
	if err := faultinject.Eval("serve.store.load"); err != nil {
		return nil, nil, 0, injectedFaultError(err)
	}
	dir := st.sessionDir(name)
	m, err := st.loadManifest(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	if m.Name != name {
		return nil, nil, 0, errf(CodeStore, "session %q: manifest names %q", name, m.Name)
	}
	if m.ParamsFP != st.fp {
		return nil, nil, 0, errf(CodeStore, "session %q: key blobs were written under a different parameter set", name)
	}
	if m.Rlk != nil {
		b, err := st.readBlob(dir, m.Rlk)
		if err != nil {
			return nil, nil, 0, errf(CodeStore, "session %q: %v", name, err)
		}
		if rlk, err = st.codec.UnmarshalSwitchingKey(b); err != nil {
			return nil, nil, 0, errf(CodeStore, "session %q: decoding relinearization key: %v", name, err)
		}
	}
	if m.Rtks != nil {
		b, err := st.readBlob(dir, m.Rtks)
		if err != nil {
			return nil, nil, 0, errf(CodeStore, "session %q: %v", name, err)
		}
		if rtks, err = st.codec.UnmarshalRotationKeySet(b); err != nil {
			return nil, nil, 0, errf(CodeStore, "session %q: decoding rotation keys: %v", name, err)
		}
	}
	return rlk, rtks, m.KeyBytes, nil
}

func (st *Store) loadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, errf(CodeStore, "reading manifest: %v", err)
	}
	if len(b) > maxManifestBytes {
		return nil, errf(CodeStore, "manifest of %d bytes over the %d limit", len(b), maxManifestBytes)
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, errf(CodeStore, "%v", err)
	}
	return m, nil
}

// List scans the store and returns the manifest of every decodable stored
// session (sorted by name) without touching any key blob — the lazy
// restart path reads ~1 KiB per tenant, deferring the multi-MiB key
// decode until a session's first use. Sessions with corrupt manifests or
// foreign fingerprints are skipped and reported in skipped.
func (st *Store) List() (manifests []*Manifest, skipped []string) {
	entries, err := os.ReadDir(filepath.Join(st.root, "sessions"))
	if err != nil {
		return nil, nil
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		dir := filepath.Join(st.root, "sessions", e.Name())
		m, err := st.loadManifest(dir)
		if err != nil || m.ParamsFP != st.fp || hex.EncodeToString([]byte(m.Name)) != e.Name() {
			skipped = append(skipped, e.Name())
			continue
		}
		manifests = append(manifests, m)
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Name < manifests[j].Name })
	return manifests, skipped
}

// Delete removes a stored session (a no-op when it does not exist).
func (st *Store) Delete(name string) error {
	if err := os.RemoveAll(st.sessionDir(name)); err != nil {
		return errf(CodeStore, "deleting session %q: %v", name, err)
	}
	return nil
}

// Ciphertext registers spill to a single registers.bin inside the session
// directory, so Save (which replaces the whole directory) atomically drops
// stale registers when a session reopens with new keys. The format is
// self-checking like the key blobs but self-contained (no manifest entry —
// registers change far more often than keys, and rewriting the manifest on
// every spill would double the rename traffic):
//
//	"BTSREGS1" | u32 count | count × (u16 len(name) | name |
//	    u32 len(blob) | wire ciphertext envelope) | u32 CRC-32C
//
// all little-endian, CRC over every preceding byte. The file is written to
// a temporary name in the session directory, fsynced, then renamed — a
// crash leaves the previous spill (or none), never a torn one.
const regsFile = "registers.bin"

var regsMagic = []byte("BTSREGS1")

// maxRegsFileBytes bounds a register file read (a corrupt count cannot
// make the loader allocate unboundedly past it).
const maxRegsFileBytes = 1 << 32

// SaveRegisters persists a session's register set, replacing any previous
// spill. The session must already have a stored manifest — registers are
// an adjunct to a durable session, not a session themselves.
func (st *Store) SaveRegisters(name string, regs map[string]*ckks.Ciphertext) error {
	if err := faultinject.Eval("serve.store.save_regs"); err != nil {
		return injectedFaultError(err)
	}
	dir := st.sessionDir(name)
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
		return errf(CodeStore, "spilling registers of %q: no stored session: %v", name, err)
	}
	names := make([]string, 0, len(regs))
	for n := range regs {
		names = append(names, n)
	}
	sort.Strings(names)
	// Every register's envelope is encoded straight into the file buffer,
	// sized up front so it never regrows.
	size := len(regsMagic) + 4 + 4
	for _, n := range names {
		size += 2 + len(n) + 4 + int(regs[n].Bytes()) + ciphertextFraming
	}
	buf := make([]byte, 0, size)
	buf = append(buf, regsMagic...)
	buf = le32(buf, uint32(len(names)))
	for _, n := range names {
		buf = append(buf, byte(len(n)), byte(len(n)>>8))
		buf = append(buf, n...)
		at := len(buf)
		buf = le32(buf, 0) // the blob length, stored once the blob is in
		var err error
		if buf, err = st.codec.AppendCiphertext(buf, regs[n]); err != nil {
			return errf(CodeStore, "encoding register %q of %q: %v", n, name, err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	buf = le32(buf, crc32.Checksum(buf, crcTable))
	f, err := os.CreateTemp(dir, ".regs-*")
	if err != nil {
		return errf(CodeStore, "spilling registers of %q: %v", name, err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, regsFile))
	}
	if err != nil {
		os.Remove(tmp)
		return errf(CodeStore, "spilling registers of %q: %v", name, err)
	}
	return nil
}

// LoadRegisters reads a session's spilled register set; a session that
// never spilled returns (nil, nil). Corruption (bad magic, checksum, torn
// lengths) is a typed store error, never a panic.
func (st *Store) LoadRegisters(name string) (map[string]*ckks.Ciphertext, error) {
	if err := faultinject.Eval("serve.store.load_regs"); err != nil {
		return nil, injectedFaultError(err)
	}
	b, err := os.ReadFile(filepath.Join(st.sessionDir(name), regsFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, errf(CodeStore, "reading registers of %q: %v", name, err)
	}
	if int64(len(b)) > maxRegsFileBytes {
		return nil, errf(CodeStore, "registers of %q: file of %d bytes over the limit", name, len(b))
	}
	if len(b) < len(regsMagic)+8 || string(b[:len(regsMagic)]) != string(regsMagic) {
		return nil, errf(CodeStore, "registers of %q: bad magic or truncated file", name)
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != rd32(trailer) {
		return nil, errf(CodeStore, "registers of %q: checksum mismatch", name)
	}
	p := body[len(regsMagic):]
	if len(p) < 4 {
		return nil, errf(CodeStore, "registers of %q: truncated count", name)
	}
	count := rd32(p)
	p = p[4:]
	// An entry takes at least 6 bytes, so the count cannot size the map past
	// what the file can hold.
	regs := make(map[string]*ckks.Ciphertext, min(int(count), len(p)/6))
	for i := uint32(0); i < count; i++ {
		if len(p) < 2 {
			return nil, errf(CodeStore, "registers of %q: truncated name length", name)
		}
		nl := int(p[0]) | int(p[1])<<8
		p = p[2:]
		if len(p) < nl+4 {
			return nil, errf(CodeStore, "registers of %q: truncated entry", name)
		}
		rn := string(p[:nl])
		p = p[nl:]
		bl := int(rd32(p))
		p = p[4:]
		if bl < 0 || len(p) < bl {
			return nil, errf(CodeStore, "registers of %q: truncated ciphertext blob", name)
		}
		ct, err := st.codec.UnmarshalCiphertext(p[:bl])
		if err != nil {
			return nil, errf(CodeStore, "registers of %q: decoding %q: %v", name, rn, err)
		}
		p = p[bl:]
		regs[rn] = ct
	}
	if len(p) != 0 {
		return nil, errf(CodeStore, "registers of %q: %d trailing bytes", name, len(p))
	}
	return regs, nil
}

func le32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func rd32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
