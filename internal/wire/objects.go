package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"bts/internal/ckks"
	"bts/internal/ring"
)

// --- Ciphertext -------------------------------------------------------------

// ciphertextPayload is the payload byte count of a ciphertext at level.
func (c *Codec) ciphertextPayload(level int) int {
	return 12 + 2*polyBodySize(c.ctx.RingQ, level)
}

// ciphertextSize validates ct and returns its envelope's byte count.
func (c *Codec) ciphertextSize(ct *ckks.Ciphertext) (int, error) {
	rq := c.ctx.RingQ
	if err := checkPoly(rq, ct.C0, ct.Level); err != nil {
		return 0, err
	}
	if err := checkPoly(rq, ct.C1, ct.Level); err != nil {
		return 0, err
	}
	return envelopeSize(TypeCiphertext, c.ciphertextPayload(ct.Level))
}

// putCiphertext stores ct's envelope, sized by ciphertextSize, into env.
func (c *Codec) putCiphertext(env []byte, ct *ckks.Ciphertext) {
	p := putHeader(env, TypeCiphertext)
	binary.LittleEndian.PutUint32(p[0:4], uint32(ct.Level))
	binary.LittleEndian.PutUint64(p[4:12], math.Float64bits(ct.Scale))
	p = putPolyBody(p[12:], c.ctx.RingQ, ct.C0, ct.Level)
	putPolyBody(p, c.ctx.RingQ, ct.C1, ct.Level)
}

// AppendCiphertext appends the wire encoding of ct to dst, growing it at
// most once, and returns the extended slice. On error dst is returned
// unchanged.
func (c *Codec) AppendCiphertext(dst []byte, ct *ckks.Ciphertext) ([]byte, error) {
	size, err := c.ciphertextSize(ct)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, size)
	n := len(dst)
	dst = dst[:n+size]
	c.putCiphertext(dst[n:], ct)
	c.countOut(size)
	return dst, nil
}

// WriteCiphertext frames ct in a pooled buffer and hands it to w in one
// Write.
func (c *Codec) WriteCiphertext(w io.Writer, ct *ckks.Ciphertext) error {
	size, err := c.ciphertextSize(ct)
	if err != nil {
		return err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer c.release(buf)
	buf.Grow(size)
	env := buf.AvailableBuffer()[:size]
	c.putCiphertext(env, ct)
	if _, err := w.Write(env); err != nil {
		return fmt.Errorf("wire: writing %s: %w", TypeCiphertext, err)
	}
	c.countOut(size)
	return nil
}

// ReadCiphertext decodes one ciphertext envelope into a ciphertext drawn
// from the context's pool; return it with Context.PutCiphertext so the next
// decode reuses it and its rows.
func (c *Codec) ReadCiphertext(r io.Reader) (*ckks.Ciphertext, error) {
	buf, err := c.readEnvelope(r, TypeCiphertext)
	if err != nil {
		return nil, err
	}
	defer c.release(buf)
	return c.decodeCiphertext(buf.Bytes())
}

// MarshalCiphertext returns the wire encoding of ct in a slice of exactly
// its size.
func (c *Codec) MarshalCiphertext(ct *ckks.Ciphertext) ([]byte, error) {
	return c.AppendCiphertext(nil, ct)
}

// UnmarshalCiphertext decodes the ciphertext envelope at the start of b,
// in place.
func (c *Codec) UnmarshalCiphertext(b []byte) (*ckks.Ciphertext, error) {
	payload, err := c.envelopePayload(b, TypeCiphertext)
	if err != nil {
		return nil, err
	}
	return c.decodeCiphertext(payload)
}

// decodeCiphertext decodes a ciphertext payload.
func (c *Codec) decodeCiphertext(payload []byte) (*ckks.Ciphertext, error) {
	cu := &cursor{b: payload}
	level, scale, err := c.readLevelScale(cu)
	if err != nil {
		return nil, err
	}
	// No zeroing pass: readPolyBody overwrites every active row, and on
	// error the partially-filled ciphertext goes straight back to the pool
	// (pool contents are scratch).
	ct := c.ctx.GetCiphertextNoZero(level, scale)
	fail := func(err error) (*ckks.Ciphertext, error) {
		c.ctx.PutCiphertext(ct)
		return nil, err
	}
	if _, got, err := readPolyBody(cu, c.ctx.RingQ, ct.C0); err != nil {
		return fail(err)
	} else if got != level {
		return fail(fmt.Errorf("wire: ciphertext header level %d but c0 has %d rows", level, got+1))
	}
	if _, got, err := readPolyBody(cu, c.ctx.RingQ, ct.C1); err != nil {
		return fail(err)
	} else if got != level {
		return fail(fmt.Errorf("wire: ciphertext header level %d but c1 has %d rows", level, got+1))
	}
	if err := cu.done(); err != nil {
		return fail(err)
	}
	return ct, nil
}

// readLevelScale reads and validates a ciphertext payload's (level, scale)
// prefix.
func (c *Codec) readLevelScale(cu *cursor) (int, float64, error) {
	lvl, err := cu.u32()
	if err != nil {
		return 0, 0, err
	}
	if int(lvl) > c.ctx.RingQ.MaxLevel() {
		return 0, 0, fmt.Errorf("wire: level %d above context maximum %d", lvl, c.ctx.RingQ.MaxLevel())
	}
	scale, err := readScale(cu)
	if err != nil {
		return 0, 0, err
	}
	return int(lvl), scale, nil
}

// --- SwitchingKey -----------------------------------------------------------

// switchingKeyBody is the byte count of a switching-key body: dnum, seed,
// and per decomposition group the full-chain polynomials bQ and bP.
func (c *Codec) switchingKeyBody() int {
	rq, rp := c.ctx.RingQ, c.ctx.RingP
	return 4 + ring.SeedSize + c.ctx.Params.Dnum*(polyBodySize(rq, rq.MaxLevel())+polyBodySize(rp, rp.MaxLevel()))
}

// checkSwitchingKey reports whether swk has the context's shape.
func (c *Codec) checkSwitchingKey(swk *ckks.SwitchingKey) error {
	rq, rp := c.ctx.RingQ, c.ctx.RingP
	if len(swk.B) != c.ctx.Params.Dnum {
		return fmt.Errorf("wire: switching key has %d groups, context dnum is %d", len(swk.B), c.ctx.Params.Dnum)
	}
	for _, b := range swk.B {
		if err := checkPoly(rq, b.Q, rq.MaxLevel()); err != nil {
			return err
		}
		if err := checkPoly(rp, b.P, rp.MaxLevel()); err != nil {
			return err
		}
	}
	return nil
}

// putSwitchingKeyBody stores swk, checked by checkSwitchingKey, at the
// start of b and returns what follows it: uint32 dnum, the 32-byte seed
// that regenerates every a_j, then per decomposition group the two
// polynomials bQ, bP over their full chains.
func (c *Codec) putSwitchingKeyBody(b []byte, swk *ckks.SwitchingKey) []byte {
	rq, rp := c.ctx.RingQ, c.ctx.RingP
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(swk.B)))
	b = b[4+copy(b[4:], swk.Seed[:]):]
	for _, g := range swk.B {
		b = putPolyBody(b, rq, g.Q, rq.MaxLevel())
		b = putPolyBody(b, rp, g.P, rp.MaxLevel())
	}
	return b
}

// readSwitchingKeyBody decodes one switching-key body from cu.
func (c *Codec) readSwitchingKeyBody(cu *cursor) (*ckks.SwitchingKey, error) {
	rq, rp := c.ctx.RingQ, c.ctx.RingP
	groups, err := cu.u32()
	if err != nil {
		return nil, err
	}
	if int(groups) != c.ctx.Params.Dnum {
		return nil, fmt.Errorf("wire: switching key with %d groups, context dnum is %d", groups, c.ctx.Params.Dnum)
	}
	if cu.remaining() < ring.SeedSize {
		return nil, fmt.Errorf("wire: truncated switching-key seed at offset %d", cu.off)
	}
	swk := &ckks.SwitchingKey{B: make([]ckks.PolyQP, groups)}
	cu.off += copy(swk.Seed[:], cu.b[cu.off:])
	for j := range swk.B {
		pq, lvlQ, err := readPolyBody(cu, rq, nil)
		if err != nil {
			return nil, err
		}
		if lvlQ != rq.MaxLevel() {
			return nil, fmt.Errorf("wire: switching key Q part has %d rows, need %d", lvlQ+1, rq.MaxLevel()+1)
		}
		pp, lvlP, err := readPolyBody(cu, rp, nil)
		if err != nil {
			return nil, err
		}
		if lvlP != rp.MaxLevel() {
			return nil, fmt.Errorf("wire: switching key P part has %d rows, need %d", lvlP+1, rp.MaxLevel()+1)
		}
		swk.B[j] = ckks.PolyQP{Q: pq, P: pp}
	}
	return swk, nil
}

// encodeSwitchingKey returns swk's envelope in a slice of exactly its size.
func (c *Codec) encodeSwitchingKey(swk *ckks.SwitchingKey) ([]byte, error) {
	if err := c.checkSwitchingKey(swk); err != nil {
		return nil, err
	}
	size, err := envelopeSize(TypeSwitchingKey, c.switchingKeyBody())
	if err != nil {
		return nil, err
	}
	env := make([]byte, size)
	c.putSwitchingKeyBody(putHeader(env, TypeSwitchingKey), swk)
	return env, nil
}

// ReadSwitchingKey decodes one switching-key envelope.
func (c *Codec) ReadSwitchingKey(r io.Reader) (*ckks.SwitchingKey, error) {
	buf, err := c.readEnvelope(r, TypeSwitchingKey)
	if err != nil {
		return nil, err
	}
	defer c.release(buf)
	return c.decodeSwitchingKey(buf.Bytes())
}

// MarshalSwitchingKey returns the wire encoding of swk.
func (c *Codec) MarshalSwitchingKey(swk *ckks.SwitchingKey) ([]byte, error) {
	env, err := c.encodeSwitchingKey(swk)
	if err != nil {
		return nil, err
	}
	c.countOut(len(env))
	return env, nil
}

// UnmarshalSwitchingKey decodes the switching-key envelope at the start of
// b, in place.
func (c *Codec) UnmarshalSwitchingKey(b []byte) (*ckks.SwitchingKey, error) {
	payload, err := c.envelopePayload(b, TypeSwitchingKey)
	if err != nil {
		return nil, err
	}
	return c.decodeSwitchingKey(payload)
}

// decodeSwitchingKey decodes a switching-key payload.
func (c *Codec) decodeSwitchingKey(payload []byte) (*ckks.SwitchingKey, error) {
	cu := &cursor{b: payload}
	swk, err := c.readSwitchingKeyBody(cu)
	if err != nil {
		return nil, err
	}
	if err := cu.done(); err != nil {
		return nil, err
	}
	return swk, nil
}

// --- RotationKeySet ---------------------------------------------------------

// encodeRotationKeySet returns rtks's envelope in a slice of exactly its
// size, with entries sorted by Galois element, so equal key sets marshal to
// identical bytes.
func (c *Codec) encodeRotationKeySet(rtks *ckks.RotationKeySet) ([]byte, error) {
	if len(rtks.Keys) > MaxRotationKeys {
		return nil, fmt.Errorf("wire: rotation key set with %d entries exceeds limit %d", len(rtks.Keys), MaxRotationKeys)
	}
	galois := make([]uint64, 0, len(rtks.Keys))
	for g, swk := range rtks.Keys {
		if err := c.checkSwitchingKey(swk); err != nil {
			return nil, err
		}
		galois = append(galois, g)
	}
	slices.Sort(galois)
	size, err := envelopeSize(TypeRotationKeySet, 4+len(galois)*(8+c.switchingKeyBody()))
	if err != nil {
		return nil, err
	}
	env := make([]byte, size)
	p := putHeader(env, TypeRotationKeySet)
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(galois)))
	p = p[4:]
	for _, g := range galois {
		binary.LittleEndian.PutUint64(p[0:8], g)
		p = c.putSwitchingKeyBody(p[8:], rtks.Keys[g])
	}
	return env, nil
}

// ReadRotationKeySet decodes one rotation-key-set envelope. Galois elements
// must be odd, in range (0, 2N), and unique.
func (c *Codec) ReadRotationKeySet(r io.Reader) (*ckks.RotationKeySet, error) {
	buf, err := c.readEnvelope(r, TypeRotationKeySet)
	if err != nil {
		return nil, err
	}
	defer c.release(buf)
	return c.decodeRotationKeySet(buf.Bytes())
}

// decodeRotationKeySet decodes a rotation-key-set payload.
func (c *Codec) decodeRotationKeySet(payload []byte) (*ckks.RotationKeySet, error) {
	cu := &cursor{b: payload}
	count, err := cu.u32()
	if err != nil {
		return nil, err
	}
	if count > MaxRotationKeys {
		return nil, fmt.Errorf("wire: rotation key set with %d entries exceeds limit %d", count, MaxRotationKeys)
	}
	twoN := uint64(2 * c.ctx.RingQ.N)
	rtks := &ckks.RotationKeySet{Keys: make(map[uint64]*ckks.SwitchingKey, count)}
	for i := uint32(0); i < count; i++ {
		g, err := cu.u64()
		if err != nil {
			return nil, err
		}
		if g%2 == 0 || g >= twoN {
			return nil, fmt.Errorf("wire: invalid Galois element %d (need odd, < %d)", g, twoN)
		}
		if _, dup := rtks.Keys[g]; dup {
			return nil, fmt.Errorf("wire: duplicate Galois element %d", g)
		}
		swk, err := c.readSwitchingKeyBody(cu)
		if err != nil {
			return nil, err
		}
		rtks.Keys[g] = swk
	}
	if err := cu.done(); err != nil {
		return nil, err
	}
	return rtks, nil
}

// MarshalRotationKeySet returns the wire encoding of rtks.
func (c *Codec) MarshalRotationKeySet(rtks *ckks.RotationKeySet) ([]byte, error) {
	env, err := c.encodeRotationKeySet(rtks)
	if err != nil {
		return nil, err
	}
	c.countOut(len(env))
	return env, nil
}

// UnmarshalRotationKeySet decodes the rotation-key-set envelope at the
// start of b, in place.
func (c *Codec) UnmarshalRotationKeySet(b []byte) (*ckks.RotationKeySet, error) {
	payload, err := c.envelopePayload(b, TypeRotationKeySet)
	if err != nil {
		return nil, err
	}
	return c.decodeRotationKeySet(payload)
}
