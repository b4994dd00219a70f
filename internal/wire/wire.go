// Package wire is the serialization layer of the serving runtime: a
// versioned, length-prefixed binary codec for the three CKKS objects that
// cross a process boundary: ciphertexts, switching keys and rotation-key
// sets.
//
// Every object travels inside an envelope:
//
//	offset 0  magic   "BTSW" (4 bytes)
//	offset 4  version (1 byte, currently 2)
//	offset 5  type    (1 byte, see Type)
//	offset 6  length  (uint32 little-endian, payload byte count)
//	offset 10 payload (type-specific, little-endian)
//
// A Codec is bound to a ckks.Context and validates everything it decodes
// against it — ring degree, level bounds, residue canonicity (every residue
// must be < its prime), scale sanity, decomposition arity — so malformed or
// truncated bytes always surface as an error, never as a panic or an
// out-of-range write. The length prefix is checked against a per-type upper
// bound derived from the context before any allocation, bounding the memory
// a hostile peer can make the decoder commit.
//
// Every object's payload nests polynomial bodies, each
//
//	uint32 N | uint32 rows | rows×N × uint64 residues (row-major)
//
// without repeating the envelope. A ciphertext's payload is uint32 level |
// float64 scale | poly c0 | poly c1. A switching key's body is
//
//	uint32 dnum | 32-byte seed | dnum × (poly bQ_j | poly bP_j)
//
// — only the b halves travel; the seed regenerates every a_j on the
// receiving side (ckks.SwitchingKey), halving a key upload. A rotation-key
// set is uint32 count | count × (uint64 Galois element | key body). Integers and floats are little-endian; scales travel as IEEE-754
// bit patterns, so round trips are bit-exact.
//
// In-memory polynomials hold their residues in Montgomery form (the ring
// package's M-form invariant); the wire format does not. Encoding strips the
// Montgomery factor from every residue and decoding restores it, so the
// bytes always carry true canonical residues — the representation is an
// implementation detail of this process, not of the protocol, and the
// decoder's range validation stays meaningful.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bts/internal/ckks"
	"bts/internal/ring"
	"bts/internal/telemetry"
)

// Version is the wire-format version emitted by this package. Decoders
// reject envelopes with any other version. Version 2 carries switching keys
// as their b halves plus a seed (version 1 carried both halves).
const Version = 2

// magic is the 4-byte envelope preamble.
var magic = [4]byte{'B', 'T', 'S', 'W'}

// headerSize is the envelope size preceding every payload.
const headerSize = 10

// Type tags the object carried by an envelope.
type Type uint8

// Tags 1, 2 and 4 carried polynomials, plaintexts and public keys, which no
// endpoint exchanges; they stay unassigned so every surviving tag keeps its
// value and a stale envelope is rejected as the wrong type.
const (
	TypeCiphertext     Type = 3
	TypeSwitchingKey   Type = 5
	TypeRotationKeySet Type = 6
)

func (t Type) String() string {
	switch t {
	case TypeCiphertext:
		return "Ciphertext"
	case TypeSwitchingKey:
		return "SwitchingKey"
	case TypeRotationKeySet:
		return "RotationKeySet"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxRotationKeys bounds the number of entries a RotationKeySet envelope may
// carry; it exists purely to cap decoder allocation on hostile input.
const MaxRotationKeys = 4096

// Codec encodes and decodes wire objects for one ckks.Context. A Codec is
// stateless apart from its context binding (and an optional stats sink) and
// is safe for concurrent use.
type Codec struct {
	ctx    *ckks.Context
	pooled bool

	// stats, when non-nil, counts envelopes and bytes through the codec
	// (headers included); every hook is nil-guarded. See SetStats.
	stats *telemetry.WireStats
}

// SetStats attaches a traffic counter sink to the codec (nil detaches):
// every envelope encoded counts as "out" and every envelope decoded as "in",
// whether it crossed a socket or a byte-slice Marshal round trip. Attach
// before serving traffic; must not race encode/decode calls.
func (c *Codec) SetStats(st *telemetry.WireStats) { c.stats = st }

// NewCodec returns a codec bound to ctx. Decoded ciphertexts are plain
// allocations.
func NewCodec(ctx *ckks.Context) *Codec { return &Codec{ctx: ctx} }

// NewPooledCodec returns a codec whose ReadCiphertext/UnmarshalCiphertext
// draw the result from the context's ciphertext pool, so a serving loop that
// returns results with Context.PutCiphertext decodes without allocating.
func NewPooledCodec(ctx *ckks.Context) *Codec { return &Codec{ctx: ctx, pooled: true} }

// Context returns the context this codec validates against.
func (c *Codec) Context() *ckks.Context { return c.ctx }

// --- Envelope ---------------------------------------------------------------

// PeekType reports the type of the next envelope in br without consuming
// it, validating the magic and version. It lets a stream consumer (the
// serving session endpoint) dispatch on what the peer actually sent.
func PeekType(br *bufio.Reader) (Type, error) {
	hdr, err := br.Peek(6)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return 0, fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("wire: unsupported version %d (have %d)", hdr[4], Version)
	}
	return Type(hdr[5]), nil
}

// writeEnvelope frames payload and writes it to w.
func (c *Codec) writeEnvelope(w io.Writer, t Type, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("wire: %s payload of %d bytes exceeds the 4 GiB envelope limit", t, len(payload))
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	hdr[4] = Version
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing %s header: %w", t, err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing %s payload: %w", t, err)
	}
	if st := c.stats; st != nil {
		st.EnvelopesOut.Add(1)
		st.BytesOut.Add(int64(headerSize + len(payload)))
	}
	return nil
}

// readEnvelope reads one envelope of the expected type, enforcing the
// per-type payload bound before allocating.
func (c *Codec) readEnvelope(r io.Reader, want Type) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading %s header: %w", want, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return nil, fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (have %d)", hdr[4], Version)
	}
	if got := Type(hdr[5]); got != want {
		return nil, fmt.Errorf("wire: expected %s envelope, got %s", want, got)
	}
	n := binary.LittleEndian.Uint32(hdr[6:])
	if max := c.maxPayload(want); uint64(n) > max {
		return nil, fmt.Errorf("wire: %s payload of %d bytes exceeds bound %d", want, n, max)
	}
	// Grow the buffer as bytes actually arrive rather than trusting the
	// declared length for the allocation: a hostile header then costs its
	// sender bandwidth, not this process memory.
	var buf bytes.Buffer
	m, err := io.Copy(&buf, io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("wire: reading %s payload: %w", want, err)
	}
	if uint64(m) != uint64(n) {
		return nil, fmt.Errorf("wire: %s payload truncated: got %d of %d bytes", want, m, n)
	}
	if st := c.stats; st != nil {
		st.EnvelopesIn.Add(1)
		st.BytesIn.Add(int64(headerSize) + m)
	}
	return buf.Bytes(), nil
}

// maxPayload returns the largest payload a well-formed envelope of type t can
// carry under this codec's context.
func (c *Codec) maxPayload(t Type) uint64 {
	n := uint64(c.ctx.Params.N())
	qRows := uint64(len(c.ctx.Params.Q))
	pRows := uint64(len(c.ctx.Params.P))
	polyQ := 8 + qRows*n*8 // N + rows header, then residues
	polyP := 8 + pRows*n*8
	swk := 4 + ring.SeedSize + uint64(c.ctx.Params.Dnum)*(polyQ+polyP)
	switch t {
	case TypeCiphertext:
		return 12 + 2*polyQ
	case TypeSwitchingKey:
		return swk
	case TypeRotationKeySet:
		return 4 + MaxRotationKeys*(8+swk)
	}
	return 0
}

// --- Payload cursor ---------------------------------------------------------

// cursor walks a payload with explicit bounds checks; every accessor returns
// an error instead of slicing out of range.
type cursor struct {
	b   []byte
	off int
}

func (cu *cursor) remaining() int { return len(cu.b) - cu.off }

func (cu *cursor) u32() (uint32, error) {
	if cu.remaining() < 4 {
		return 0, fmt.Errorf("wire: truncated payload at offset %d", cu.off)
	}
	v := binary.LittleEndian.Uint32(cu.b[cu.off:])
	cu.off += 4
	return v, nil
}

func (cu *cursor) u64() (uint64, error) {
	if cu.remaining() < 8 {
		return 0, fmt.Errorf("wire: truncated payload at offset %d", cu.off)
	}
	v := binary.LittleEndian.Uint64(cu.b[cu.off:])
	cu.off += 8
	return v, nil
}

func (cu *cursor) done() error {
	if cu.remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after payload", cu.remaining())
	}
	return nil
}

// --- Polynomial bodies ------------------------------------------------------

// appendPolyBody serializes rows [0..level] of p (which must belong to r).
func appendPolyBody(buf *bytes.Buffer, r *ring.Ring, p *ring.Poly, level int) error {
	if level < 0 || level > r.MaxLevel() {
		return fmt.Errorf("wire: level %d outside [0,%d]", level, r.MaxLevel())
	}
	if p.Levels() < level {
		return fmt.Errorf("wire: polynomial has %d rows, need %d", p.Levels()+1, level+1)
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[0:4], uint32(r.N))
	binary.LittleEndian.PutUint32(tmp[4:8], uint32(level+1))
	buf.Write(tmp[:])
	for i := 0; i <= level; i++ {
		row := p.Coeffs[i]
		mr := r.Moduli[i].MRed
		for j := 0; j < r.N; j++ {
			binary.LittleEndian.PutUint64(tmp[:], mr.IForm(row[j]))
			buf.Write(tmp[:])
		}
	}
	return nil
}

// readPolyBody decodes one polynomial body from cu, validating the degree,
// the row count against r's chain, and every residue against its prime. If
// into is non-nil it must already hold at least the decoded rows and is
// filled in place; otherwise a fresh polynomial is allocated.
func readPolyBody(cu *cursor, r *ring.Ring, into *ring.Poly) (*ring.Poly, int, error) {
	n, err := cu.u32()
	if err != nil {
		return nil, 0, err
	}
	if int(n) != r.N {
		return nil, 0, fmt.Errorf("wire: polynomial degree %d, context uses N=%d", n, r.N)
	}
	rows, err := cu.u32()
	if err != nil {
		return nil, 0, err
	}
	if rows < 1 || int(rows) > len(r.Moduli) {
		return nil, 0, fmt.Errorf("wire: %d residue rows outside [1,%d]", rows, len(r.Moduli))
	}
	level := int(rows) - 1
	need := int(rows) * r.N * 8
	if cu.remaining() < need {
		return nil, 0, fmt.Errorf("wire: polynomial body truncated: %d bytes, need %d", cu.remaining(), need)
	}
	p := into
	if p == nil {
		p = r.NewPolyLevel(level)
	} else if p.Levels() < level {
		return nil, 0, fmt.Errorf("wire: destination polynomial has %d rows, need %d", p.Levels()+1, rows)
	}
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		mr := r.Moduli[i].MRed
		row := p.Coeffs[i]
		src := cu.b[cu.off:]
		for j := 0; j < r.N; j++ {
			v := binary.LittleEndian.Uint64(src[j*8:])
			if v >= q {
				return nil, 0, fmt.Errorf("wire: residue %d out of range for modulus %d (row %d)", v, q, i)
			}
			row[j] = mr.MForm(v)
		}
		cu.off += r.N * 8
	}
	return p, level, nil
}

// readScale validates an IEEE-754 scale bit pattern.
func readScale(cu *cursor) (float64, error) {
	bits, err := cu.u64()
	if err != nil {
		return 0, err
	}
	s := math.Float64frombits(bits)
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return 0, fmt.Errorf("wire: invalid scale %g", s)
	}
	return s, nil
}
