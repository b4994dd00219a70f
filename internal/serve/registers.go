package serve

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"bts/internal/ckks"
)

// Ciphertext registers are the session-resident half of the DAG job model:
// named values ("$x") that DAG ops read and write, persisting server-side
// across requests so a multi-request pipeline moves wire bytes only at its
// boundary. This file holds their lifecycle — commit under the tenant
// quota, spill to the durable store when the key cache evicts the session,
// rehydrate on next use — plus the per-session cache of hot pmul plaintext
// encodings.

// register is one committed session value. The ciphertext is immutable once
// committed and is never returned to the pool: a job in flight reads the
// value from the snapshot it took when it started, which a later commit may
// replace under it, so a replaced value is dropped to the garbage collector
// instead.
type register struct {
	ct    *ckks.Ciphertext
	bytes int64
}

// getRegister returns the current value of a register, or nil.
func (sess *session) getRegister(name string) *ckks.Ciphertext {
	sess.regMu.Lock()
	defer sess.regMu.Unlock()
	if r := sess.regs[name]; r != nil {
		return r.ct
	}
	return nil
}

// registersKnown reports whether the in-memory register set is complete —
// false after a restart or a spill, when some registers may exist only in
// the durable store. Submit-time dangling-reference checks only run when it
// is true; otherwise they defer to execution, after rehydration.
func (sess *session) registersKnown() bool {
	sess.regMu.Lock()
	defer sess.regMu.Unlock()
	return sess.regsLoaded
}

// registerStats returns the resident register count and byte footprint.
func (sess *session) registerStats() (count int, bytes int64) {
	sess.regMu.Lock()
	defer sess.regMu.Unlock()
	return len(sess.regs), sess.regBytes
}

// commitRegister installs ct as the session's value for name, charging the
// session's combined footprint (eval keys + registers) against the tenant
// quota. On success the session owns ct — the caller must not Put or mutate
// it. A quota overrun is terminal (CodeQuota): re-running the same commit
// deterministically fails until the tenant frees space.
func (s *Server) commitRegister(sess *session, name string, ct *ckks.Ciphertext) error {
	bytes := ct.Bytes()
	keyBytes := sess.keyFootprint() // sess.mu; taken before regMu, never nested inside it
	sess.regMu.Lock()
	newTotal := sess.regBytes + bytes
	if old := sess.regs[name]; old != nil {
		newTotal -= old.bytes
	}
	if q := s.cfg.SessionQuotaBytes; q > 0 && keyBytes+newTotal > q {
		sess.regMu.Unlock()
		if s.tel != nil {
			s.tel.quotaRejections.Add(1)
		}
		return errf(CodeQuota,
			"register %q (%d bytes) would put session %q at %d bytes (keys %d + registers %d), over the %d-byte quota",
			name, bytes, sess.name, keyBytes+newTotal, keyBytes, newTotal, q)
	}
	if sess.regs == nil {
		sess.regs = make(map[string]*register)
	}
	sess.regs[name] = &register{ct: ct, bytes: bytes}
	sess.regBytes = newTotal
	sess.regMu.Unlock()
	return nil
}

// hydrateRegisters merges the session's spilled registers back from the
// durable store. Runs under the same single-flight mutex as key rehydration
// (hydMu), so concurrent jobs of a freshly rehydrated session trigger one
// store read. Memory wins on conflict: a register committed since the spill
// is newer than its on-disk copy by construction (spills only happen while
// the session is idle). Loaded values passed the quota when first
// committed, so they are not re-charged here.
func (s *Server) hydrateRegisters(sess *session) error {
	sess.regMu.Lock()
	loaded := sess.regsLoaded
	sess.regMu.Unlock()
	if loaded {
		return nil
	}
	sess.hydMu.Lock()
	defer sess.hydMu.Unlock()
	sess.regMu.Lock()
	if sess.regsLoaded {
		sess.regMu.Unlock()
		return nil
	}
	sess.regMu.Unlock()
	var fromDisk map[string]*ckks.Ciphertext
	if s.store != nil {
		sess.mu.Lock()
		onDisk := sess.onDisk
		sess.mu.Unlock()
		if onDisk {
			var err error
			if fromDisk, err = s.store.LoadRegisters(sess.name); err != nil {
				return err
			}
		}
	}
	sess.regMu.Lock()
	if sess.regs == nil && len(fromDisk) > 0 {
		sess.regs = make(map[string]*register, len(fromDisk))
	}
	restored := 0
	for name, ct := range fromDisk {
		if _, exists := sess.regs[name]; exists {
			continue
		}
		sess.regs[name] = &register{ct: ct, bytes: ct.Bytes()}
		sess.regBytes += ct.Bytes()
		restored++
	}
	sess.regsLoaded = true
	sess.regMu.Unlock()
	if s.tel != nil && restored > 0 {
		s.tel.regReloads.Add(int64(restored))
	}
	return nil
}

// spillRegisters persists the session's resident registers to the durable
// store and drops them from memory. Callers must ensure the session is idle
// (no queued or in-flight jobs): the key cache only nominates idle victims,
// and Drain spills after the queue is empty. If the store write fails the
// registers stay resident — correctness over memory; dropping values
// without a durable copy would lose tenant state. Sessions not yet written
// through to the store (store disabled, or OpenSession's write-through
// failed) keep their registers resident for the same reason.
func (s *Server) spillRegisters(sess *session) {
	if s.store == nil {
		return
	}
	sess.mu.Lock()
	onDisk := sess.onDisk
	sess.mu.Unlock()
	if !onDisk {
		return
	}
	sess.regMu.Lock()
	if !sess.regsLoaded || len(sess.regs) == 0 {
		sess.regMu.Unlock()
		return
	}
	snap := make(map[string]*ckks.Ciphertext, len(sess.regs))
	for name, r := range sess.regs {
		snap[name] = r.ct
	}
	sess.regMu.Unlock()
	// The store write runs outside regMu: registers are immutable once
	// committed, and the idleness contract means no commit races the spill.
	if err := s.store.SaveRegisters(sess.name, snap); err != nil {
		return
	}
	sess.regMu.Lock()
	sess.regs = nil
	sess.regBytes = 0
	sess.regsLoaded = false
	sess.regMu.Unlock()
	if s.tel != nil {
		s.tel.regSpills.Add(int64(len(snap)))
	}
}

// encodingCacheEntries is the per-session encoding cache capacity.
const encodingCacheEntries = 32

// encodingCache is a per-session LRU of pmul plaintext encodings, keyed by
// (vector, level, scale). Encoding is a full slot-permutation FFT plus NTT
// per residue — milliseconds at serving ring sizes — and pipelines reuse a
// handful of constant vectors (masks, diagonal weights) across many jobs,
// so hot entries short-circuit that work. Cached plaintexts are immutable
// and shared by reference; the cache is safe for concurrent DAG nodes.
type encodingCache struct {
	mu     sync.Mutex
	order  *list.List               // front = most recent
	byHash map[uint64]*list.Element // collision-checked against the full key
}

type encEntry struct {
	hash  uint64
	vals  []float64
	level int
	scale float64
	pt    *ckks.Plaintext
}

func newEncodingCache() *encodingCache {
	return &encodingCache{order: list.New(), byHash: make(map[uint64]*list.Element)}
}

// encKey hashes the full (vals, level, scale) encoding key with FNV-1a.
// Hits re-verify against the stored key, so a collision costs a re-encode,
// never a wrong plaintext.
func encKey(vals []float64, level int, scale float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(level))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(scale))
	h.Write(buf[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (e *encEntry) matches(vals []float64, level int, scale float64) bool {
	if e.level != level || e.scale != scale || len(e.vals) != len(vals) {
		return false
	}
	for i, v := range vals {
		if math.Float64bits(e.vals[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

func (ec *encodingCache) lookup(key uint64, vals []float64, level int, scale float64) *ckks.Plaintext {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if el, ok := ec.byHash[key]; ok {
		if e := el.Value.(*encEntry); e.matches(vals, level, scale) {
			ec.order.MoveToFront(el)
			return e.pt
		}
	}
	return nil
}

func (ec *encodingCache) insert(key uint64, vals []float64, level int, scale float64, pt *ckks.Plaintext) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if el, ok := ec.byHash[key]; ok {
		// Same hash: either a concurrent encode of the same vector (keep
		// either) or a collision (newest wins). Replace in place.
		ec.order.Remove(el)
		delete(ec.byHash, key)
	}
	ec.byHash[key] = ec.order.PushFront(&encEntry{hash: key, vals: vals, level: level, scale: scale, pt: pt})
	for ec.order.Len() > encodingCacheEntries {
		back := ec.order.Back()
		delete(ec.byHash, back.Value.(*encEntry).hash)
		ec.order.Remove(back)
	}
}

// encodingCacheFor returns the session's encoding cache, creating it
// lazily.
func (s *Server) encodingCacheFor(sess *session) *encodingCache {
	sess.regMu.Lock()
	defer sess.regMu.Unlock()
	if sess.enc == nil {
		sess.enc = newEncodingCache()
	}
	return sess.enc
}

// sessionPlaintext encodes a pmul vector at the given level and scale,
// serving repeats from the session's encoding cache. The encoder is
// stateless (read-only FFT tables), so cache misses encode outside any
// lock and concurrent misses at worst duplicate work, never corrupt.
func (s *Server) sessionPlaintext(sess *session, vals []float64, level int, scale float64) (*ckks.Plaintext, error) {
	ec := s.encodingCacheFor(sess)
	key := encKey(vals, level, scale)
	if pt := ec.lookup(key, vals, level, scale); pt != nil {
		if s.tel != nil {
			s.tel.encHits.Add(1)
		}
		return pt, nil
	}
	pt, err := s.encodeVals(vals, level, scale)
	if err != nil {
		return nil, err
	}
	if s.tel != nil {
		s.tel.encMisses.Add(1)
	}
	ec.insert(key, vals, level, scale, pt)
	return pt, nil
}

func (s *Server) encodeVals(vals []float64, level int, scale float64) (*ckks.Plaintext, error) {
	cv := make([]complex128, len(vals))
	for i, v := range vals {
		cv[i] = complex(v, 0)
	}
	return s.encoder.Encode(cv, level, scale)
}
