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
// Every envelope is one write: the encoder computes its byte count from the
// object's level, N and dnum, stores header and residue rows into a buffer
// of exactly that size with direct little-endian stores, and hands it to
// the writer in a single Write (AppendCiphertext appends it to the caller's
// slice instead). Every stream read is one read into a pooled buffer that
// grows only as bytes arrive, at most doubling what has been received, so a
// lying length costs its sender bandwidth, not this process memory; the
// buffer goes back to the pool once the object is decoded, and no decoded
// object aliases it. The byte-slice decoders (UnmarshalX) decode in place.
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
// set is uint32 count | count × (uint64 Galois element | key body).
// Integers and floats are little-endian; scales travel as IEEE-754 bit
// patterns, so round trips are bit-exact.
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
	"sync"

	"bts/internal/ckks"
	"bts/internal/mod"
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
	ctx *ckks.Context

	// stats, when non-nil, counts envelopes and bytes through the codec
	// (headers included); every hook is nil-guarded. See SetStats.
	stats *telemetry.WireStats
}

// SetStats attaches a traffic counter sink to the codec (nil detaches):
// every envelope encoded counts as "out" and every envelope decoded as "in",
// whether it crossed a socket or a byte-slice Marshal round trip. Attach
// before serving traffic; must not race encode/decode calls.
func (c *Codec) SetStats(st *telemetry.WireStats) { c.stats = st }

// NewCodec returns a codec bound to ctx. ReadCiphertext/UnmarshalCiphertext
// draw the result from the context's ciphertext pool and decode straight
// into its rows. A pooled ciphertext is a drop-in for a plain one: return it
// with Context.PutCiphertext so the next decode reuses it and its rows, or
// leave it to the garbage collector.
func NewCodec(ctx *ckks.Context) *Codec { return &Codec{ctx: ctx} }

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

// envelopeSize returns the byte count of a t envelope carrying payload
// bytes, or an error if the length prefix cannot express it.
func envelopeSize(t Type, payload int) (int, error) {
	if uint64(payload) > math.MaxUint32 {
		return 0, fmt.Errorf("wire: %s payload of %d bytes exceeds the 4 GiB envelope limit", t, payload)
	}
	return headerSize + payload, nil
}

// putHeader stores the envelope header of a t envelope into env, whose
// length is the whole envelope's, and returns the payload that follows it.
func putHeader(env []byte, t Type) []byte {
	copy(env[:4], magic[:])
	env[4] = Version
	env[5] = byte(t)
	binary.LittleEndian.PutUint32(env[6:headerSize], uint32(len(env)-headerSize))
	return env[headerSize:]
}

// bufPool holds the envelope buffers of WriteCiphertext and the ReadX
// decoders, so a serving loop encodes and decodes its ciphertexts without
// allocating a buffer per envelope. A buffer is lent for one envelope
// only: nothing decoded aliases it (every decoder copies out of the
// payload), and the writer handed an encoded envelope must not retain it
// (the io.Writer contract).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// release returns buf to the pool, unless it grew larger than twice the
// context's largest ciphertext envelope: a key envelope's buffer is dropped
// rather than kept alive for the ciphertexts that follow.
func (c *Codec) release(buf *bytes.Buffer) {
	if uint64(buf.Cap()) > 2*(headerSize+c.maxPayload(TypeCiphertext)) {
		return
	}
	buf.Reset()
	bufPool.Put(buf)
}

// countOut counts one encoded envelope of size bytes.
func (c *Codec) countOut(size int) {
	if st := c.stats; st != nil {
		st.EnvelopesOut.Add(1)
		st.BytesOut.Add(int64(size))
	}
}

// countIn counts one decoded envelope of size bytes.
func (c *Codec) countIn(size int) {
	if st := c.stats; st != nil {
		st.EnvelopesIn.Add(1)
		st.BytesIn.Add(int64(size))
	}
}

// checkHeader validates an envelope header against the expected type and
// returns its payload length, enforcing the per-type bound.
func (c *Codec) checkHeader(hdr []byte, want Type) (int, error) {
	if !bytes.Equal(hdr[:4], magic[:]) {
		return 0, fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("wire: unsupported version %d (have %d)", hdr[4], Version)
	}
	if got := Type(hdr[5]); got != want {
		return 0, fmt.Errorf("wire: expected %s envelope, got %s", want, got)
	}
	n := binary.LittleEndian.Uint32(hdr[6:headerSize])
	if max := c.maxPayload(want); uint64(n) > max {
		return 0, fmt.Errorf("wire: %s payload of %d bytes exceeds bound %d", want, n, max)
	}
	return int(n), nil
}

// readChunk is the first step by which readEnvelope grows its buffer.
const readChunk = 64 << 10

// readEnvelope reads one envelope of the expected type into a pooled
// buffer, which holds the payload; the caller decodes it and hands the
// buffer back with release. The per-type payload bound is enforced before
// any byte of the payload is read.
func (c *Codec) readEnvelope(r io.Reader, want Type) (*bytes.Buffer, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading %s header: %w", want, err)
	}
	n, err := c.checkHeader(hdr[:], want)
	if err != nil {
		return nil, err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	// Grow the buffer as bytes actually arrive rather than trusting the
	// declared length for the allocation: each step at most doubles what
	// has been read, so a hostile header costs its sender bandwidth, not
	// this process memory. A pooled buffer already large enough never
	// grows. ReadFrom reads straight into the buffer; the MinRead of slack
	// keeps its probe for more bytes, before it sees the limit's EOF, from
	// growing the buffer.
	lr := &io.LimitedReader{R: r}
	for buf.Len() < n {
		chunk := min(n-buf.Len(), max(buf.Len(), readChunk))
		buf.Grow(chunk + bytes.MinRead)
		lr.N = int64(chunk)
		m, err := buf.ReadFrom(lr)
		if err != nil {
			c.release(buf)
			return nil, fmt.Errorf("wire: reading %s payload: %w", want, err)
		}
		if m < int64(chunk) {
			got := buf.Len()
			c.release(buf)
			return nil, fmt.Errorf("wire: %s payload truncated: got %d of %d bytes", want, got, n)
		}
	}
	c.countIn(headerSize + n)
	return buf, nil
}

// envelopePayload frames the envelope at the start of b in place: it
// validates the header and returns the payload, which aliases b. Bytes
// after the envelope are ignored, as a stream reader would leave them
// unread.
func (c *Codec) envelopePayload(b []byte, want Type) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("wire: reading %s header: %w", want, io.ErrUnexpectedEOF)
	}
	n, err := c.checkHeader(b[:headerSize], want)
	if err != nil {
		return nil, err
	}
	if len(b)-headerSize < n {
		return nil, fmt.Errorf("wire: %s payload truncated: got %d of %d bytes", want, len(b)-headerSize, n)
	}
	c.countIn(headerSize + n)
	return b[headerSize : headerSize+n], nil
}

// maxPayload returns the largest payload a well-formed envelope of type t can
// carry under this codec's context.
func (c *Codec) maxPayload(t Type) uint64 {
	switch t {
	case TypeCiphertext:
		return uint64(c.ciphertextPayload(c.ctx.RingQ.MaxLevel()))
	case TypeSwitchingKey:
		return uint64(c.switchingKeyBody())
	case TypeRotationKeySet:
		return 4 + MaxRotationKeys*(8+uint64(c.switchingKeyBody()))
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

// polyBodySize is the byte count of a body of rows [0..level] of an r
// polynomial: N and row count, then the residues.
func polyBodySize(r *ring.Ring, level int) int { return 8 + (level+1)*r.N*8 }

// checkPoly reports whether p (which must belong to r) can be encoded at
// the given level.
func checkPoly(r *ring.Ring, p *ring.Poly, level int) error {
	if level < 0 || level > r.MaxLevel() {
		return fmt.Errorf("wire: level %d outside [0,%d]", level, r.MaxLevel())
	}
	if p.Levels() < level {
		return fmt.Errorf("wire: polynomial has %d rows, need %d", p.Levels()+1, level+1)
	}
	return nil
}

// putPolyBody stores rows [0..level] of p, checked by checkPoly, at the
// start of b and returns what follows them.
func putPolyBody(b []byte, r *ring.Ring, p *ring.Poly, level int) []byte {
	binary.LittleEndian.PutUint32(b[0:4], uint32(r.N))
	binary.LittleEndian.PutUint32(b[4:8], uint32(level+1))
	b = b[8:]
	rowBytes := r.N * 8
	for i := 0; i <= level; i++ {
		encodeRow(b[:rowBytes], p.Coeffs[i][:r.N], r.Moduli[i].MRed)
		b = b[rowBytes:]
	}
	return b
}

// encodeRow stores row's residues, out of Montgomery form, into dst as
// little-endian words; no bounds check (CI asserts that by name).
func encodeRow(dst []byte, row []uint64, mr mod.Montgomery) {
	for len(row) > 0 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, mr.IForm(row[0]))
		dst, row = dst[8:], row[1:]
	}
}

// decodeRow loads little-endian residues from src into row in Montgomery
// form. It stops at the first word that is not below q and returns it with
// false; no bounds check (CI asserts that by name).
func decodeRow(row []uint64, src []byte, q uint64, mr mod.Montgomery) (uint64, bool) {
	for len(row) > 0 && len(src) >= 8 {
		v := binary.LittleEndian.Uint64(src)
		if v >= q {
			return v, false
		}
		row[0] = mr.MForm(v)
		row, src = row[1:], src[8:]
	}
	return 0, true
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
	rowBytes := r.N * 8
	for i := 0; i <= level; i++ {
		q := r.Moduli[i].Q
		if v, ok := decodeRow(p.Coeffs[i][:r.N], cu.b[cu.off:cu.off+rowBytes], q, r.Moduli[i].MRed); !ok {
			return nil, 0, fmt.Errorf("wire: residue %d out of range for modulus %d (row %d)", v, q, i)
		}
		cu.off += rowBytes
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
