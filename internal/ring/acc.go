package ring

import "math/bits"

// Acc128 is an extended-precision element-wise accumulator: one row per RNS
// limb, each coefficient held as an unreduced 128-bit sum. A row is 2N words
// stored planar — low words in [0,N), high words in [N,2N) — so the MAC
// kernels index three equal-length views with the same induction variable and
// the compiler eliminates every bounds check in the inner loops (the
// interleaved (lo,hi) pair layout defeated the prove pass on the 2j/2j+1
// accesses). It implements a lazy multiply-accumulate: sum residue products
// without intermediate modular reduction, then reduce once per coefficient
// with a single fold-and-REDC pass (mod.Montgomery.Reduce128 accepts
// arbitrary 128-bit inputs). No library path uses it: every key-switch MAC
// (MulKeyPair) and the linear transform's diagonal folds (Fold) run
// reduced, and Acc128 stays for the kernels the benchmark's ring.mac128_gbps
// times (MulGatherAndAddLazy, ReduceAcc).
//
// Overflow bound: a sum of T products of residues below q stays under 2^128
// while T·(q-1)² < 2^128 — 2^18 terms for 55-bit moduli, 2^38 for 45-bit.
//
// Like Poly scratch, accumulators come from a per-ring pool: borrow with
// GetAcc, return with PutAcc.
type Acc128 struct {
	Rows [][]uint64
}

// GetAcc borrows a zeroed accumulator usable up to the given level from the
// ring's pool. Return it with PutAcc.
func (r *Ring) GetAcc(level int) *Acc128 {
	a, _ := r.accPool.Get().(*Acc128)
	if a == nil {
		backing := make([]uint64, len(r.Moduli)*2*r.N)
		a = &Acc128{Rows: make([][]uint64, len(r.Moduli))}
		for i := range a.Rows {
			a.Rows[i] = backing[i*2*r.N : (i+1)*2*r.N : (i+1)*2*r.N]
		}
	}
	r.exec.RunBlocks(level+1, 2*r.N, func(i, lo, hi int) {
		row := a.Rows[i][lo:hi:hi]
		for j := range row {
			row[j] = 0
		}
	})
	return a
}

// PutAcc returns an accumulator borrowed with GetAcc to the pool.
func (r *Ring) PutAcc(a *Acc128) {
	if a == nil {
		return
	}
	if len(a.Rows) != len(r.Moduli) {
		panic("ring: PutAcc of an accumulator not sized to the full chain")
	}
	r.accPool.Put(a)
}

// MulGatherAndAddLazy sets acc += σ(a) ⊙ b element-wise on rows [0..level]
// without modular reduction, where σ(a)[j] = a[table[j]] is the NTT-domain
// automorphism given by its index table (AutoIndexNTT). Fusing the gather
// into the MAC saves the full read-modify-write pass over the operand that a
// separate AutomorphismNTT would cost. No library path calls it: the
// key-switch fuses its gather into MulKeyPair's reduced products, and this
// lazy form stays as the kernel the benchmark's ring.mac128_gbps times.
func (r *Ring) MulGatherAndAddLazy(a *Poly, table []int, b *Poly, acc *Acc128, level int) {
	n := r.N
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		row := acc.Rows[i]
		gatherAddLazyRow(a.Coeffs[i], table[lo:hi:hi], b.Coeffs[i][lo:hi:hi], row[lo:hi:hi], row[n+lo:n+hi:n+hi])
	})
}

// gatherAddLazyRow adds a[table[j]]·b[j] into the 128-bit sums
// (accHi[j], accLo[j]) over the common length of table, b and the sums; the
// gather a[table[j]] keeps its one data-dependent bounds check.
func gatherAddLazyRow(a []uint64, table []int, b, accLo, accHi []uint64) {
	for j := 0; j < len(table) && j < len(b) && j < len(accLo) && j < len(accHi); j++ {
		pHi, pLo := bits.Mul64(a[table[j]], b[j])
		var c uint64
		accLo[j], c = bits.Add64(accLo[j], pLo, 0)
		accHi[j], _ = bits.Add64(accHi[j], pHi, c)
	}
}

// ReduceAcc reduces acc into out on rows [0..level]: one fold of the high
// word plus one REDC per coefficient (mod.Montgomery.Reduce128), yielding
// exactly the canonical residues the equivalent chain of reduced
// multiply-accumulates would have produced (the congruence class of a sum
// does not depend on when reductions happen). The accumulated products of two
// Montgomery-form operands each carry R², so the REDC that divides the folded
// sum by R lands it in Montgomery form — the whole conversion cost amortized
// over every product summed into the accumulator.
func (r *Ring) ReduceAcc(acc *Acc128, out *Poly, level int) {
	n := r.N
	r.exec.RunBlocks(level+1, r.N, func(i, lo, hi int) {
		row := acc.Rows[i]
		reduceAccRow(row[lo:hi:hi], row[n+lo:n+hi:n+hi], out.Coeffs[i][lo:hi:hi], r.Moduli[i])
	})
}

// reduceAccRow sets out[j] to the M-form residue of the 128-bit sum
// (accHi[j], accLo[j]) over the rows' common length, on the lanes and then
// reduceAccRowGo as mulRow does.
func reduceAccRow(accLo, accHi, out []uint64, m *Modulus) {
	if useLanes {
		n := min(len(accLo), len(accHi), len(out)) &^ 7
		reduceAccRowLanes(accLo, accHi, out, m.Q, m.MRed.QInv, m.MRed.Fold)
		accLo, accHi, out = accLo[n:], accHi[n:], out[n:]
	}
	reduceAccRowGo(accLo, accHi, out, m)
}

// reduceAccRowGo is reduceAccRow's Go row: a Shoup fold of the high word,
// then one REDC (mod.Montgomery.Reduce128). No bounds check (CI asserts
// that by name).
func reduceAccRowGo(accLo, accHi, out []uint64, m *Modulus) {
	mr := m.MRed
	for j := 0; j < len(accLo) && j < len(accHi) && j < len(out); j++ {
		out[j] = mr.Reduce128(accHi[j], accLo[j])
	}
}
