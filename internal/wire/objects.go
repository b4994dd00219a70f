package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"bts/internal/ckks"
	"bts/internal/ring"
)

// --- Ciphertext -------------------------------------------------------------

// WriteCiphertext frames ct.
func (c *Codec) WriteCiphertext(w io.Writer, ct *ckks.Ciphertext) error {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(ct.Level))
	buf.Write(tmp[:4])
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(ct.Scale))
	buf.Write(tmp[:])
	if err := appendPolyBody(&buf, c.ctx.RingQ, ct.C0, ct.Level); err != nil {
		return err
	}
	if err := appendPolyBody(&buf, c.ctx.RingQ, ct.C1, ct.Level); err != nil {
		return err
	}
	return c.writeEnvelope(w, TypeCiphertext, buf.Bytes())
}

// ReadCiphertext decodes one ciphertext envelope. A pooled codec draws the
// result from the context's ciphertext pool; return it with
// Context.PutCiphertext to serve without allocating.
func (c *Codec) ReadCiphertext(r io.Reader) (*ckks.Ciphertext, error) {
	payload, err := c.readEnvelope(r, TypeCiphertext)
	if err != nil {
		return nil, err
	}
	cu := &cursor{b: payload}
	level, scale, err := c.readLevelScale(cu)
	if err != nil {
		return nil, err
	}
	var ct *ckks.Ciphertext
	if c.pooled {
		// No zeroing pass: readPolyBody overwrites every active row, and on
		// error the partially-filled ciphertext goes straight back to the
		// pool (pool contents are scratch).
		ct = c.ctx.GetCiphertextNoZero(level, scale)
	} else {
		ct = c.ctx.NewCiphertext(level, scale)
	}
	fail := func(err error) (*ckks.Ciphertext, error) {
		c.ctx.PutCiphertext(ct) // no-op for plain ciphertexts
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

// MarshalCiphertext returns the wire encoding of ct.
func (c *Codec) MarshalCiphertext(ct *ckks.Ciphertext) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteCiphertext(&buf, ct); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalCiphertext decodes a ciphertext envelope from b.
func (c *Codec) UnmarshalCiphertext(b []byte) (*ckks.Ciphertext, error) {
	return c.ReadCiphertext(bytes.NewReader(b))
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

// appendSwitchingKeyBody serializes swk: uint32 dnum, the 32-byte seed that
// regenerates every a_j, then per decomposition group the two polynomials
// bQ, bP over their full chains.
func (c *Codec) appendSwitchingKeyBody(buf *bytes.Buffer, swk *ckks.SwitchingKey) error {
	rq, rp := c.ctx.RingQ, c.ctx.RingP
	if len(swk.B) != c.ctx.Params.Dnum {
		return fmt.Errorf("wire: switching key has %d groups, context dnum is %d", len(swk.B), c.ctx.Params.Dnum)
	}
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(swk.B)))
	buf.Write(tmp[:])
	buf.Write(swk.Seed[:])
	for _, b := range swk.B {
		if err := appendPolyBody(buf, rq, b.Q, rq.MaxLevel()); err != nil {
			return err
		}
		if err := appendPolyBody(buf, rp, b.P, rp.MaxLevel()); err != nil {
			return err
		}
	}
	return nil
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

// WriteSwitchingKey frames swk.
func (c *Codec) WriteSwitchingKey(w io.Writer, swk *ckks.SwitchingKey) error {
	var buf bytes.Buffer
	if err := c.appendSwitchingKeyBody(&buf, swk); err != nil {
		return err
	}
	return c.writeEnvelope(w, TypeSwitchingKey, buf.Bytes())
}

// ReadSwitchingKey decodes one switching-key envelope.
func (c *Codec) ReadSwitchingKey(r io.Reader) (*ckks.SwitchingKey, error) {
	payload, err := c.readEnvelope(r, TypeSwitchingKey)
	if err != nil {
		return nil, err
	}
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

// MarshalSwitchingKey returns the wire encoding of swk.
func (c *Codec) MarshalSwitchingKey(swk *ckks.SwitchingKey) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.WriteSwitchingKey(&buf, swk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalSwitchingKey decodes a switching-key envelope from b.
func (c *Codec) UnmarshalSwitchingKey(b []byte) (*ckks.SwitchingKey, error) {
	return c.ReadSwitchingKey(bytes.NewReader(b))
}

// --- RotationKeySet ---------------------------------------------------------

// WriteRotationKeySet frames rtks with entries sorted by Galois element, so
// equal key sets marshal to identical bytes.
func (c *Codec) WriteRotationKeySet(w io.Writer, rtks *ckks.RotationKeySet) error {
	if len(rtks.Keys) > MaxRotationKeys {
		return fmt.Errorf("wire: rotation key set with %d entries exceeds limit %d", len(rtks.Keys), MaxRotationKeys)
	}
	galois := make([]uint64, 0, len(rtks.Keys))
	for g := range rtks.Keys {
		galois = append(galois, g)
	}
	sort.Slice(galois, func(i, j int) bool { return galois[i] < galois[j] })
	var buf bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(galois)))
	buf.Write(tmp[:4])
	for _, g := range galois {
		binary.LittleEndian.PutUint64(tmp[:], g)
		buf.Write(tmp[:])
		if err := c.appendSwitchingKeyBody(&buf, rtks.Keys[g]); err != nil {
			return err
		}
	}
	return c.writeEnvelope(w, TypeRotationKeySet, buf.Bytes())
}

// ReadRotationKeySet decodes one rotation-key-set envelope. Galois elements
// must be odd, in range (0, 2N), and unique.
func (c *Codec) ReadRotationKeySet(r io.Reader) (*ckks.RotationKeySet, error) {
	payload, err := c.readEnvelope(r, TypeRotationKeySet)
	if err != nil {
		return nil, err
	}
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
	var buf bytes.Buffer
	if err := c.WriteRotationKeySet(&buf, rtks); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalRotationKeySet decodes a rotation-key-set envelope from b.
func (c *Codec) UnmarshalRotationKeySet(b []byte) (*ckks.RotationKeySet, error) {
	return c.ReadRotationKeySet(bytes.NewReader(b))
}
