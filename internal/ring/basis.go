package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"bts/internal/mod"
)

// BasisExtender implements the fast RNS base conversion BConv (Eq. 9 of the
// paper): given the residues of x over a source base {q_j}, it produces the
// residues over a target base {p_i} of a value congruent to x plus a small
// multiple of Q (the classic approximate conversion, whose overflow is
// absorbed by key-switching noise).
//
// The conversion is a dense matrix product, digits × constants, and runs as
// one: stage 1 multiplies each source residue by (Q/q_j)^-1 mod q_j (the
// BConvU's ModMult in Section 5.2), giving the digit vector y of every
// coefficient; stage 2 is the dot product Σ_j f(y_j)·(Q/q_j) mod p_i of that
// vector with one row of constants per target limb (the MMAU), where f takes
// the *centered* representative f(y) = y - q_j·[y > q_j/2]. The centered
// form keeps the conversion overflow in (-nf/2·Q, nf/2·Q) instead of
// [0, nf·Q) and — crucially for hoisted key-switching — makes the conversion
// exactly negation-equivariant: Convert(-x) = -Convert(x) residue for
// residue, so the Galois automorphism (a signed coefficient permutation)
// commutes bit-exactly with ModUp.
//
// Both stages are fused over tiles of convTile coefficients, one engine task
// per tile: a tile's digits are written into a pooled scratch small enough
// to stay in cache, then read back once per target limb, so the digits never
// travel through memory and no barrier separates the stages.
//
// The conversion has two implementations, chosen once per extender:
//
//   - bconvDigits and bconvLanes (bconv_amd64.s), where the CPU has AVX-512
//     IFMA: the tile is term-major (row t holds term t of convTile
//     consecutive coefficients), and one zmm register carries 8
//     coefficients — of one source limb in stage 1, of one target limb in
//     stage 2. Each product costs seven 52-bit multiply-accumulates into
//     seven accumulators; a stage-2 dot product sums them over every term.
//     The sum is normalized to radix 2^52 and reduced by a two-step
//     radix-2^52 Montgomery REDC against constants pre-multiplied to
//     cancel its 2^-104, then one VPMINUQ makes it canonical.
//   - convertTile, everywhere else and as the kernels' oracle in tests: the
//     tile is coefficient-major, each digit is one 64-bit Montgomery
//     product, and each digit vector's dot product sums exactly in 128 bits
//     (dot128) before one Barrett reduction.
//
// Both produce canonical residues of the same integers: the digits
// x·qhatInv·2^-64 mod q_j, and the dot product of the digit vector with
// qhatTo[i] mod p_i. The IFMA constants are qhatInv times 2^40 and qhatTo
// times 2^104, the REDC divides by 2^104, and a REDC's output below 2m is
// canonical after one subtraction. So the outputs agree word for word, at
// every engine shape, and nothing above the ring can tell which kernels
// ran.
type BasisExtender struct {
	from, to []*Modulus

	// qhatInv is stored as a plain (non-Montgomery) constant on purpose: the
	// stage-1 input is in M-form, so the fused REDC product
	// REDC(x·R · (Q/q_j)^-1) is the *true* digit y_j — exactly what stage 2
	// needs, since the centered y_j crosses moduli as an integer. The stage-2
	// table is the opposite: its constants carry the target-modulus M-form,
	// so the reduction of the sum Σ y_j·[Q/q_j]·R lands directly in
	// Montgomery form over the target base.
	qhatInv []uint64 // [(Q/q_j)^-1]_{q_j}, plain form

	// qhatTo[i] is target limb i's row of stage-2 constants, nf+1 wide:
	// [Q/q_j]·R mod p_i for each source limb j, then [-Q]·R mod p_i. The
	// last entry pairs with the digit vector's last entry, the number of
	// digits above their threshold: y_j - q_j contributes y_j·(Q/q_j) - Q,
	// so the centering correction is one more term of the same dot product.
	qhatTo [][]uint64

	// chunk is how many dot-product terms a 128-bit accumulator is certain to
	// hold; sums longer than that are reduced every chunk terms. Only very
	// wide moduli × very long source bases get there (more than 16 limbs of
	// 62-bit primes) — every parameter set in the repository sums a whole row
	// lazily and reduces once.
	chunk int

	// lanes holds the AVX-512 IFMA kernels' tables; nil selects the Go
	// convertTile.
	lanes *laneTables

	exec    *Engine
	scratch sync.Pool // *[]uint64, one tile of digit vectors
}

// laneTables are the constants of the IFMA kernels, each table led by its
// modulus m, m>>52 and -m^-1 mod 2^52 (REDUCE in bconv_amd64.s).
type laneTables struct {
	// digits[j] drives bconvDigits over source limb j: then
	// (Q/q_j)^-1·2^40 mod q_j — qhatInv[j] with REDC's 2^-64 folded into
	// the kernel's 2^-104 — beside its bits above 52, and (q_j-1)/2.
	digits [][]uint64
	// dots[i] drives bconvLanes for target limb i: then each qhatTo[i]
	// entry times 2^104 mod p_i beside its bits above 52.
	dots [][]uint64
}

// convTile is the number of coefficients converted per engine task. The
// tile's digit vectors (convTile × (nf+1) words, 58 KiB at the 28-limb INS-1
// basis) are re-read once per target limb and must stay cache-resident.
// It is a multiple of 8, the IFMA kernel's lane count.
const convTile = 256

// bconvLaneTerms is the most dot-product terms bconvLanes takes: its 64-bit
// lanes add three sums of up to 2^52 per term and must not wrap. Wider
// extenders (more than 1023 source limbs) run convertTile.
const bconvLaneTerms = 1024

// NewBasisExtender precomputes the conversion tables from the source to the
// target base. The bases must be disjoint prime sets. The extender starts
// serial; use SetEngine to attach a pool.
func NewBasisExtender(from, to []*Modulus) (*BasisExtender, error) {
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("ring: empty basis in BasisExtender")
	}
	seen := map[uint64]bool{}
	for _, m := range from {
		seen[m.Q] = true
	}
	for _, m := range to {
		if seen[m.Q] {
			return nil, fmt.Errorf("ring: bases overlap at modulus %d", m.Q)
		}
	}
	q := big.NewInt(1)
	for _, m := range from {
		q.Mul(q, new(big.Int).SetUint64(m.Q))
	}
	nf := len(from)
	be := &BasisExtender{
		from:    from,
		to:      to,
		qhatInv: make([]uint64, nf),
		qhatTo:  make([][]uint64, len(to)),
	}
	for i := range be.qhatTo {
		be.qhatTo[i] = make([]uint64, nf+1)
	}
	tmp := new(big.Int)
	maxFrom, maxTo := uint64(0), uint64(0)
	for j, m := range from {
		qj := new(big.Int).SetUint64(m.Q)
		qhat := new(big.Int).Quo(q, qj)
		inv := new(big.Int).ModInverse(tmp.Mod(qhat, qj), qj)
		be.qhatInv[j] = inv.Uint64()
		for i, mt := range to {
			be.qhatTo[i][j] = mt.MRed.MForm(tmp.Mod(qhat, new(big.Int).SetUint64(mt.Q)).Uint64())
		}
		maxFrom = max(maxFrom, m.Q)
	}
	for i, mt := range to {
		qmod := tmp.Mod(q, new(big.Int).SetUint64(mt.Q)).Uint64()
		be.qhatTo[i][nf] = mt.MRed.MForm(mod.Neg(qmod, mt.Q))
		maxTo = max(maxTo, mt.Q)
	}
	// A run of m terms sums to at most m·(q_src-1)·(q_tgt-1), plus — once
	// each — a reduced carry-in below q_tgt and the correction term, at most
	// nf·(q_tgt-1); chunk is the largest m for which that fits 128 bits
	// (never below 15: moduli stay under 2^62).
	term := new(big.Int).SetUint64(maxFrom - 1)
	term.Mul(term, new(big.Int).SetUint64(maxTo-1))
	room := new(big.Int).Lsh(big.NewInt(1), 128)
	room.Sub(room, tmp.Mul(big.NewInt(int64(nf+1)), new(big.Int).SetUint64(maxTo)))
	be.chunk = nf + 1
	if m := room.Quo(room, term); m.IsInt64() && m.Int64() < int64(be.chunk) {
		be.chunk = int(m.Int64())
	}
	if useIFMA && nf+1 <= bconvLaneTerms {
		be.lanes = &laneTables{}
		for j, m := range from {
			c := mod.Mul(be.qhatInv[j], mod.Pow(2, 40, m.Q), m.Q)
			be.lanes.digits = append(be.lanes.digits, append(laneModulus(m), c, c>>52, m.Q>>1))
		}
		for i, mt := range to {
			r104 := mod.Pow(2, 104, mt.Q)
			tab := laneModulus(mt)
			for _, c := range be.qhatTo[i] {
				c = mod.Mul(c, r104, mt.Q)
				tab = append(tab, c, c>>52)
			}
			be.lanes.dots = append(be.lanes.dots, tab)
		}
	}
	return be, nil
}

// laneModulus returns the head of an IFMA table for m.
func laneModulus(m *Modulus) []uint64 {
	return []uint64{m.Q, m.Q >> 52, m.MRed.QInv & (1<<52 - 1)}
}

// SetEngine attaches an execution engine (nil reverts to serial).
func (be *BasisExtender) SetEngine(e *Engine) { be.exec = e }

// Convert performs the base conversion on coefficient-domain rows. in must
// hold len(from) rows; out receives len(to) rows, each at least as long as
// in[0]. Inputs and outputs are in M-form.
//
// Stage 2 uses the centered representative of each stage-1 digit: when
// y_j > q_j/2 the term contributes (y_j - q_j)·(Q/q_j) = y_j·(Q/q_j) - Q, so
// the sum gets the precomputed correction [-Q]_{p_i} once per such digit.
// This makes Convert(-x) bit-identical to -Convert(x) (f(q_j - y) = -f(y)
// exactly for odd q_j), the property the hoisted key-switch relies on to
// permute decomposed slices instead of re-decomposing permuted ciphertexts.
// Either implementation reduces the exact sum to its canonical residue (see
// BasisExtender), so the output depends neither on the implementation nor
// on the tiling or the engine's shape.
func (be *BasisExtender) Convert(in, out [][]uint64) {
	nf, nt := len(be.from), len(be.to)
	if len(in) < nf || len(out) < nt {
		panic("ring: BasisExtender.Convert: row count mismatch")
	}
	n := len(in[0])
	be.exec.Run((n+convTile-1)/convTile, func(t int) {
		lo := t * convTile
		if be.lanes != nil {
			be.convertTileLanes(in, out, lo, min(lo+convTile, n))
		} else {
			be.convertTile(in, out, lo, min(lo+convTile, n))
		}
	})
}

// convertTileLanes converts coefficients [lo, hi) of every row on the IFMA
// kernels. Its tile is term-major — row t holds term t of convTile
// consecutive coefficients, the last row their centering counts — so
// bconvDigits writes, and bconvLanes loads, one term of eight coefficients
// at once.
func (be *BasisExtender) convertTileLanes(in, out [][]uint64, lo, hi int) {
	nf := len(be.from)
	sp, _ := be.scratch.Get().(*[]uint64)
	if sp == nil {
		s := make([]uint64, convTile*(nf+1))
		sp = &s
	}
	yT := *sp
	cnt := yT[nf*convTile:]
	clear(cnt[:hi-lo])
	for j, tab := range be.lanes.digits {
		x := in[j][lo:hi]
		bconvDigits(&yT[j*convTile], &cnt[0], &x[0], len(x), &tab[0])
	}
	for i, tab := range be.lanes.dots {
		dst := out[i][lo:hi]
		bconvLanes(&dst[0], &yT[0], len(dst), convTile, nf+1, &tab[0])
	}
	be.scratch.Put(sp)
}

// convertTile converts coefficients [lo, hi) of every row.
func (be *BasisExtender) convertTile(in, out [][]uint64, lo, hi int) {
	nf := len(be.from)
	stride := nf + 1
	sp, _ := be.scratch.Get().(*[]uint64)
	if sp == nil {
		s := make([]uint64, convTile*stride)
		sp = &s
	}
	// yT holds one digit vector per coefficient: y_0 .. y_{nf-1}, then the
	// count of digits above their centering threshold.
	yT := (*sp)[:(hi-lo)*stride]
	for k := nf; k < len(yT); k += stride {
		yT[k] = 0
	}
	// Stage 1: y_j = [x_j * (Q/q_j)^-1]_{q_j}. The input residues are in
	// M-form and qhatInv is plain, so the fused REDC strips the R factor and
	// the digits come out as true residues. Source limb outer: each input
	// row segment is read contiguously with its constants in registers, and
	// the strided stores stay inside the cache-resident tile.
	for j, m := range be.from {
		mr := m.MRed
		w := be.qhatInv[j]
		half := m.Q >> 1 // (q_j-1)/2, the centering threshold
		for k, x := range in[j][lo:hi] {
			y := mr.Mul(x, w)
			yT[k*stride+j] = y
			yT[k*stride+nf] += (half - y) >> 63 // y > half, branch-free
		}
	}
	// Stage 2: out_i = Σ_j f(y_j) * [Q/q_j]_{p_i}, one dot product per
	// target limb and coefficient.
	for i, m := range be.to {
		w := be.qhatTo[i]
		dst := out[i][lo:hi]
		for k := range dst {
			dst[k] = dotMod(yT[k*stride:(k+1)*stride], w, be.chunk, m.BRed)
		}
	}
	be.scratch.Put(sp)
}

// dotMod returns Σ y[k]·w[k] mod q, the stage-2 kernel of BConv, for vectors
// of equal length. Products accumulate unreduced in 128 bits and are reduced
// once at the end (mod.Reduce128 takes arbitrary 128-bit inputs); vectors
// longer than chunk, the count of terms the accumulator is certain to hold,
// are also reduced every chunk terms. Either way the result is the canonical
// residue of the exact integer sum.
func dotMod(y, w []uint64, chunk int, br mod.Barrett) uint64 {
	var hi, lo uint64
	for len(y) > chunk && len(w) > chunk {
		hi, lo = dot128(y[:chunk], w[:chunk], hi, lo)
		hi, lo = 0, br.Reduce128(hi, lo)
		y, w = y[chunk:], w[chunk:]
	}
	return br.Reduce128(dot128(y, w, hi, lo))
}

// dot128 adds Σ y[k]·w[k] to the 128-bit accumulator (hi, lo): two loads, a
// multiply and an add-with-carry per term, the accumulator in registers.
func dot128(y, w []uint64, hi, lo uint64) (uint64, uint64) {
	for k := 0; k < len(y) && k < len(w); k++ {
		pHi, pLo := bits.Mul64(y[k], w[k])
		var c uint64
		lo, c = bits.Add64(lo, pLo, 0)
		hi, _ = bits.Add64(hi, pHi, c)
	}
	return hi, lo
}
