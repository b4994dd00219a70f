package ring

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// Seeded uniform polynomials. A key-switching key (b, a) spends half its
// bytes on a, which is uniform and independent of every secret; holding a as
// a seed and regenerating each row inside the kernel that multiplies it
// trades PRNG words for DRAM words — the runtime evk generation ARK (the BTS
// group's follow-up accelerator) adopts because evk bytes dominate
// key-switch traffic.
//
// Expansion is counter-based AES-128-CTR, so a task can start at any chunk of
// any row without generating what comes before it:
//
//   - The AES key is the seed's two 16-byte halves XORed together.
//   - Row i of the polynomial with tag τ is cut into chunks of uniformChunk
//     coefficients. Coefficient t's candidate is keystream word t of the
//     row's primary stream (counter block τ ‖ i ‖ ⌊t/2⌋, big-endian 32/32/64
//     bits, word t%2 of the block read little-endian).
//   - A candidate v is accepted when v < L = 2^64 − (2^64 mod q), the largest
//     multiple of q that fits, and the coefficient is v mod q, so it is
//     exactly uniform in [0, q). It is an M-form word as drawn: x ↦ x·R is a
//     bijection on Z_q, so no conversion is needed.
//   - The rejected coefficients of chunk c, in increasing order, take the
//     accepted candidates of the chunk's resample stream in order (counter
//     blocks τ|2^31 ‖ i ‖ c·2^32+k for k = 0, 1, …, two words per block).
//
// A coefficient therefore depends only on (seed, τ, i, t) and a task may start
// anywhere in a row: expansion is bit-identical at every (workers, block)
// engine shape. The key-switch kernel below (MulKeyPair, which the streaming
// and the hoisted key-switch share) expands one chunk at a time into
// task-local scratch and consumes it at once, so an expanded row never exists
// whole and never leaves the cache. It multiplies the accepted candidates
// themselves, not their residues: a Montgomery product REDC(x·v) is exact for any 64-bit
// v once x < q, and every product is reduced before it is summed, so
// regenerating a word costs its keystream and one comparison. Where the CPU
// has them, the keystream runs on the 256-bit AES instructions
// (keystreamVAES, two blocks per instruction); elsewhere on crypto/aes — the
// same words either way.

// SeedSize is the byte length of the seed a UniformSource expands from.
const SeedSize = 32

// uniformChunk is the number of coefficients expanded per step: 2 KiB of
// keystream, enough to amortize the cipher call, small enough to stay in L1
// beside the operand rows it is multiplied with.
const uniformChunk = 256

// resampleBatch is the number of resample candidates drawn per cipher call;
// the widest primes reject about one candidate in sixteen, so one batch
// almost always repairs a chunk.
const resampleBatch = 32

// resampleTag marks the counter blocks of the resample streams; polynomial
// tags must stay below it.
const resampleTag = 1 << 31

// uniformZeros is the all-zero plaintext the crypto/aes CTR keystream is
// XORed onto.
var uniformZeros [uniformChunk * 8]byte

// uniformScratch is one task's expansion state, pooled so the hot kernels do
// not allocate it per task.
type uniformScratch struct {
	words [uniformChunk]uint64  // the chunk's accepted candidates
	spare [resampleBatch]uint64 // resample candidates
}

// hostLittleEndian says whether a keystream written over a []uint64 already
// holds the little-endian candidates.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

var uniformPool = sync.Pool{New: func() any { return new(uniformScratch) }}

// UniformSource expands the uniform polynomials of one seed.
type UniformSource struct {
	block cipher.Block  // crypto/aes, when the CPU lacks VAES
	rk    *[11][32]byte // else AES-128 round keys, each twice, for keystreamVAES
}

// NewUniformSource keys the expander for seed.
func NewUniformSource(seed [SeedSize]byte) *UniformSource {
	return newUniformSource(seed, useVAES)
}

// newUniformSource keys the expander for seed on keystreamVAES or on
// crypto/aes; both produce the same words.
func newUniformSource(seed [SeedSize]byte, vaes bool) *UniformSource {
	var key [16]byte
	for k := range key {
		key[k] = seed[k] ^ seed[16+k]
	}
	if vaes {
		return &UniformSource{rk: aesRoundKeys(key)}
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("ring: %v", err)) // unreachable: the key is 16 bytes
	}
	return &UniformSource{block: block}
}

// aesRoundKeys is the AES-128 key schedule (FIPS 197, §5.2), each round key
// written twice for the two lanes of keystreamVAES.
func aesRoundKeys(key [16]byte) *[11][32]byte {
	sbox := aesSbox()
	var w [44][4]byte
	for k := range 4 {
		copy(w[k][:], key[4*k:])
	}
	rcon := byte(1)
	for k := 4; k < len(w); k++ {
		t := w[k-1]
		if k%4 == 0 {
			t = [4]byte{sbox[t[1]] ^ rcon, sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			rcon = xtime(rcon)
		}
		for b := range t {
			w[k][b] = w[k-4][b] ^ t[b]
		}
	}
	rk := new([11][32]byte)
	for r := range rk {
		for k := range 4 {
			copy(rk[r][4*k:], w[4*r+k][:])
			copy(rk[r][16+4*k:], w[4*r+k][:])
		}
	}
	return rk
}

// xtime multiplies b by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func xtime(b byte) byte {
	return b<<1 ^ (b>>7)*0x1b
}

// aesSbox builds the AES S-box: the inverse in GF(2^8) (0 for 0) under the
// affine map of FIPS 197 §5.1.1. p walks the field's nonzero elements as
// powers of the generator 3 while q walks the matching powers of 3^-1, so q
// is p's inverse at every step.
var aesSbox = sync.OnceValue(func() (sbox [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= xtime(p)
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		sbox[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^ bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	sbox[0] = 0x63
	return sbox
})

// Poly returns the source's polynomial with the given tag (< 2^31). Distinct
// tags give independent polynomials; a caller expanding over several rings
// (the Q and P bases of a key) gives each its own tag.
func (s *UniformSource) Poly(tag uint32) UniformPoly {
	if tag >= resampleTag {
		panic(fmt.Sprintf("ring: uniform polynomial tag %d out of range", tag))
	}
	return UniformPoly{src: s, tag: tag}
}

// keystream writes the AES-CTR keystream of the counter blocks hi ‖ ctr,
// hi ‖ ctr+1, … (big-endian 64-bit halves) over dst, two little-endian words
// per block, and reports whether a word exceeds lim. len(dst) is a multiple
// of 32 and at most uniformChunk.
func (s *UniformSource) keystream(dst []uint64, hi, ctr, lim uint64) (rejected bool) {
	if s.rk != nil {
		return keystreamVAES(s.rk, hi, ctr, &dst[0], len(dst)/2, lim)
	}
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[0:], hi)
	binary.BigEndian.PutUint64(iv[8:], ctr)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst))
	cipher.NewCTR(s.block, iv[:]).XORKeyStream(b, uniformZeros[:len(b)])
	if !hostLittleEndian {
		for t := range dst {
			dst[t] = bits.ReverseBytes64(dst[t])
		}
	}
	for _, v := range dst {
		rejected = rejected || v > lim
	}
	return rejected
}

// UniformPoly is a uniform polynomial held as a keyed expander and a tag; its
// words exist only inside the kernel that reads them (MulKeyPair, which both
// key-switch paths run) or when ExpandUniform materializes its residues.
type UniformPoly struct {
	src *UniformSource
	tag uint32
}

// ExpandUniform writes rows [0..level] of u into p. The key-switch never calls
// it — it is key generation's and the tests' view of the same words the
// kernels consume.
func (r *Ring) ExpandUniform(u UniformPoly, p *Poly, level int) {
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		row, br := p.Coeffs[i], r.Moduli[i].BRed
		r.eachUniformChunk(u, i, lo, hi, func(c0 int, v []uint64) {
			for t, x := range v {
				row[c0+t] = br.Reduce(x)
			}
		})
	})
}

// eachUniformChunk expands coefficients [lo, hi) of row i of u and calls fn on
// consecutive pieces of at most uniformChunk of them: v holds the accepted
// candidates of coefficients c0, c0+1, … (below 2^64, congruent to them mod
// q) and is only valid during the call. A task that starts or ends inside a
// chunk expands the whole chunk and hands fn its part.
func (r *Ring) eachUniformChunk(u UniformPoly, i, lo, hi int, fn func(c0 int, v []uint64)) {
	q := r.Moduli[i].Q
	lim := ^(-q % q) // L − 1, the largest accepted candidate
	s := uniformPool.Get().(*uniformScratch)
	for c := lo / uniformChunk; c*uniformChunk < hi; c++ {
		c0 := c * uniformChunk
		u.expandChunk(s, i, c, lim)
		from, to := max(lo, c0), min(hi, c0+uniformChunk)
		fn(from, s.words[from-c0:to-c0])
	}
	uniformPool.Put(s)
}

// expandChunk sets s.words to the accepted candidates of chunk c of row i:
// the primary keystream, checked as it is written, then, for the rare chunk
// with a rejected candidate, the resample stream.
func (u UniformPoly) expandChunk(s *uniformScratch, i, c int, lim uint64) {
	hi := uint64(u.tag)<<32 | uint64(uint32(i))
	if u.src.keystream(s.words[:], hi, uint64(c)*uniformChunk/2, lim) {
		u.resampleChunk(s, hi|resampleTag<<32, c, lim)
	}
}

// resampleChunk gives each rejected coefficient of chunk c (a word of s.words
// above lim), in order, the next accepted candidate of the chunk's resample
// stream, whose counter blocks carry hi.
func (u UniformPoly) resampleChunk(s *uniformScratch, hi uint64, c int, lim uint64) {
	ctr := uint64(c) << 32
	next := len(s.spare)
	for t := range s.words {
		for s.words[t] > lim {
			if next == len(s.spare) {
				u.src.keystream(s.spare[:], hi, ctr, lim)
				ctr += resampleBatch / 2
				next = 0
			}
			s.words[t] = s.spare[next]
			next++
		}
	}
}

// MulKeyPair multiplies σ(d) by both halves of one key-switching-key slice
// on rows [0..level]: out0 = σ(d) ⊙ b and out1 = σ(d) ⊙ a, or, with add,
// out0 += σ(d) ⊙ b and out1 += σ(d) ⊙ a — the key-switch's multiply-
// accumulate (Fig. 3a), streaming and hoisted alike. σ(d)[j] = d[table[j]] is
// the NTT-domain automorphism given by its index table (AutoIndexNTT), fused
// into the reads of d, or d itself when table is nil. b is stored; a is
// expanded chunk by chunk inside each task, and both products run per chunk,
// so d's chunk is read from the cache the second time. d must be reduced
// below q (a's raw candidates are not).
func (r *Ring) MulKeyPair(d *Poly, table []int, b *Poly, a UniformPoly, out0, out1 *Poly, level int, add bool) {
	mul, gather := mulRow, gatherMulRow
	if add {
		mul, gather = mulAddRow, gatherMulAddRow
	}
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		mr := r.Moduli[i].MRed
		rd, rb, o0, o1 := d.Coeffs[i], b.Coeffs[i], out0.Coeffs[i], out1.Coeffs[i]
		r.eachUniformChunk(a, i, lo, hi, func(c0 int, va []uint64) {
			c1 := c0 + len(va)
			if table == nil {
				mul(rd[c0:c1:c1], rb[c0:c1:c1], o0[c0:c1:c1], mr)
				mul(rd[c0:c1:c1], va, o1[c0:c1:c1], mr)
			} else {
				gather(rd, table[c0:c1:c1], rb[c0:c1:c1], o0[c0:c1:c1], mr)
				gather(rd, table[c0:c1:c1], va, o1[c0:c1:c1], mr)
			}
		})
	})
}
