package ckks

import (
	"fmt"
	"math"
	"sort"

	"bts/internal/ring"
)

// LinearTransform is a plaintext matrix in diagonal representation, evaluated
// homomorphically with the baby-step/giant-step (BSGS) algorithm: the
// workhorse of the homomorphic linear transformations inside bootstrapping
// (Section 2.4: "bootstrapping mainly consists of homomorphic linear
// transforms and approximate sine evaluation").
type LinearTransform struct {
	// diags maps the diagonal index k to the encoded diagonal, pre-rotated
	// by -(k/n1)*n1 slots as BSGS requires.
	diags map[int]*Plaintext
	// diagsP carries the same diagonals reduced over the special prefix
	// P_Level (NTT domain), consumed by the double-hoisted evaluation path
	// which multiplies them against key-switch accumulators still in the
	// extended Q_ℓ·P_ℓ basis.
	diagsP map[int]*ring.Poly
	n1     int
	// Level and Scale are where/how the diagonals were encoded.
	Level int
	Scale float64
	slots int
}

// NewLinearTransform encodes the matrix given by its generalized diagonals
// (diags[k][j] = M[j][(j+k) mod slots]) at the given level and plaintext
// scale. Slots must equal the parameter slot count; zero diagonals may be
// omitted from the map. The baby-step count n1 is chosen by the hoisted
// cost model (see bsgsSplit).
func NewLinearTransform(enc *Encoder, diags map[int][]complex128, level int, scale float64) (*LinearTransform, error) {
	keys := make([]int, 0, len(diags))
	for k := range diags {
		keys = append(keys, k)
	}
	return newLinearTransformN1(enc, diags, level, scale, bsgsSplit(keys, enc.Slots()))
}

// newLinearTransformN1 is NewLinearTransform with the baby-step count n1 (a
// power of two ≤ slots) given instead of chosen.
func newLinearTransformN1(enc *Encoder, diags map[int][]complex128, level int, scale float64, n1 int) (*LinearTransform, error) {
	n := enc.Slots()
	if len(diags) == 0 {
		return nil, fmt.Errorf("ckks: linear transform with no diagonals")
	}
	lt := &LinearTransform{
		diags:  make(map[int]*Plaintext, len(diags)),
		diagsP: make(map[int]*ring.Poly, len(diags)),
		n1:     n1,
		Level:  level,
		Scale:  scale,
		slots:  n,
	}
	for k, d := range diags {
		if len(d) != n {
			return nil, fmt.Errorf("ckks: diagonal %d has %d entries, want %d", k, len(d), n)
		}
		k = ((k % n) + n) % n
		g := k / n1
		rot := make([]complex128, n)
		// Pre-rotate by -(g*n1): rot[j] = d[(j - g*n1) mod n].
		for j := 0; j < n; j++ {
			rot[j] = d[((j-g*n1)%n+n)%n]
		}
		pt, ptP, err := enc.EncodeQP(rot, level, scale)
		if err != nil {
			return nil, err
		}
		lt.diags[k] = pt
		lt.diagsP[k] = ptP
	}
	return lt, nil
}

// giantStepCost is the cost of a giant-step rotation (a full key-switch:
// iNTT + β·(BConv + NTT) + MAC + ModDown) relative to a hoisted baby step
// (an NTT-domain permutation + MAC against the shared decomposition). The
// value is a host-measured round figure and only steers the BSGS split, so
// being off by 2× shifts n1 by at most one power of two.
const giantStepCost = 8.0

// bsgsSplit picks the baby-step count n1 (a power of two) minimizing the
// hoisted-evaluation cost over the transform's *actual* diagonal indices:
// (#distinct nonzero baby rotations) + giantStepCost·(#giant-step groups).
// Baby steps reuse one hoisted decomposition and are therefore much cheaper
// than the full key-switch a giant-step rotation pays, which biases the
// split toward more baby steps than the classic n1 + #diags/n1 model.
//
// Counting distinct babies from the index set (instead of assuming all n1
// residues occur) is what makes the factored DFT stages cheap: their
// diagonals live on a stride-2^k lattice, so only #diags·n1/slots baby
// residues inside each giant group actually appear and the optimum shifts to
// much larger n1 than a dense transform of equal diagonal count would pick.
// For dense contiguous index sets this degrades exactly to the weighted
// n1 + giantStepCost·ceil(#diags/n1) model (minus the free 0-baby).
func bsgsSplit(diagIndices []int, slots int) int {
	best, bestCost := 1, math.Inf(1)
	for n1 := 1; n1 <= slots; n1 <<= 1 {
		babies := map[int]bool{}
		giants := map[int]bool{}
		for _, k := range diagIndices {
			k = ((k % slots) + slots) % slots
			if b := k % n1; b != 0 {
				babies[b] = true
			}
			giants[k/n1] = true
		}
		cost := float64(len(babies)) + giantStepCost*float64(len(giants))
		if cost < bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// BSGSRotations reports the cost-model baby-step split and the rotation set
// a transform over the given diagonal index set would require, without
// encoding any plaintexts — the static planning entry point btsparams uses
// to size the Table 2 rotation-key set before paying for a real context.
func BSGSRotations(diagIndices []int, slots int) (n1 int, rotations []int) {
	n1 = bsgsSplit(diagIndices, slots)
	return n1, bsgsRotations(diagIndices, n1, slots)
}

// Rotations returns the rotation amounts required to evaluate the transform
// (keys the caller must generate).
func (lt *LinearTransform) Rotations() []int {
	keys := make([]int, 0, len(lt.diags))
	for k := range lt.diags {
		keys = append(keys, k)
	}
	return bsgsRotations(keys, lt.n1, lt.slots)
}

// bsgsRotations returns, sorted, the distinct nonzero baby (k mod n1) and
// giant (⌊k/n1⌋·n1) rotations of the diagonal indices k, reduced mod slots.
func bsgsRotations(diagIndices []int, n1, slots int) []int {
	set := map[int]bool{}
	for _, k := range diagIndices {
		k = ((k % slots) + slots) % slots
		if b := k % n1; b != 0 {
			set[b] = true
		}
		if g := k / n1; g != 0 {
			set[g*n1] = true
		}
	}
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// byGiantStep groups the stored diagonal indices by giant step and returns
// the sorted giant indices alongside the set of needed baby rotations.
func (lt *LinearTransform) byGiantStep() (byGiant map[int][]int, giants []int, babies map[int]bool) {
	byGiant = map[int][]int{}
	babies = map[int]bool{}
	for k := range lt.diags {
		byGiant[k/lt.n1] = append(byGiant[k/lt.n1], k)
		babies[k%lt.n1] = true
	}
	giants = make([]int, 0, len(byGiant))
	for g := range byGiant {
		giants = append(giants, g)
		sort.Ints(byGiant[g])
	}
	sort.Ints(giants)
	return byGiant, giants, babies
}

// LinearTransform applies lt to ct: out = M · slots(ct), not rescaled (the
// output scale is ct.Scale·lt.Scale). It evaluates the BSGS sum with hoisted
// baby steps and double-hoisted (lazy-ModDown) giant accumulation: ct is
// decomposed once, and each baby step costs a slice permutation + MAC kept
// in the extended QP basis, into which its rotated C0 is lifted as P_ℓ·C0
// (zero over P_ℓ; the ModDown divides it back out exactly, as in mulRelin).
// Every diagonal whose baby is not 0 is then folded with the key-switch's
// reduced Montgomery MAC into its giant step's four extended accumulators —
// all giants at once, one ring.Fold per basis in baby-major order, so a
// baby's rows are read once per tile for every giant step that uses them —
// and each giant step pays a single deferred ModDown per ciphertext
// component, adds its baby-0 diagonal's plain products, and one full
// rotation.
//
// Live set, beyond ct and the output: at the fold, four polynomials per
// nonzero baby (its MAC's accumulators, two over Q_ℓ and two over P_ℓ) and
// four per giant step with a nonzero-baby diagonal (its extended
// accumulators, likewise); while the babies are built, one Q_ℓ scratch for
// the rotated C0 instead of the giants' accumulators. The babies go back to
// the pool after the fold and each giant step's accumulators after its
// ModDown; the giant steps then hold one ciphertext in flight, into which
// the baby-0 diagonal's plain products accumulate.
func (ev *Evaluator) LinearTransform(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	sp := ev.begin(spanLinear)
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	lvl := ct.Level
	if lt.Level < lvl {
		lvl = lt.Level
	}
	// The P-part diagonals hold k_{lt.Level} rows; below lt.Level the
	// key-switch reads only their first k_lvl (k_ℓ never falls as ℓ grows).
	sm := ctx.special[lvl]
	lp := sm.k - 1
	scale := ct.Scale * lt.Scale

	byGiant, giants, need := lt.byGiantStep()

	// Validate every rotation key up front so a missing key panics before
	// any scratch is borrowed.
	for b := range need {
		if b != 0 {
			ev.rotationKey(rq.GaloisElement(b))
		}
	}
	for _, g := range giants {
		if g != 0 {
			ev.rotationKey(rq.GaloisElement(g * lt.n1))
		}
	}

	// Hoisted baby steps: decompose ct once, then per baby rotation keep the
	// key-switch MAC accumulators in the extended QP basis with P_ℓ·σ_b(C0)
	// added over Q — no ModDown yet (double hoisting). A transform whose
	// diagonals all sit on giant-step boundaries has no nonzero baby step
	// and skips the decomposition entirely.
	type extAcc struct {
		q0, q1 *ring.Poly // q part
		p0, p1 *ring.Poly // p part
	}
	newExt := func() *extAcc {
		return &extAcc{q0: rq.GetPolyNoZero(), q1: rq.GetPolyNoZero(), p0: rp.GetPolyNoZero(), p1: rp.GetPolyNoZero()}
	}
	putExt := func(e *extAcc) {
		rp.PutPoly(e.p1)
		rp.PutPoly(e.p0)
		rq.PutPoly(e.q1)
		rq.PutPoly(e.q0)
	}
	babies := make(map[int]*extAcc, len(need))
	var hd *HoistedDecomposition
	var c0 *ring.Poly
	for b := range need {
		if b == 0 {
			continue
		}
		if hd == nil {
			ev.counters.Decompose.Add(1)
			dsp := ev.begin(spanDecompose)
			dsp.SetLevel(lvl)
			hd = ev.decompose(ct.C1, lvl)
			ev.endSpan(&dsp, nil)
			c0 = rq.GetPolyNoZero()
		}
		ev.counters.HoistedRot.Add(1)
		g := rq.GaloisElement(b)
		be := newExt() // keySwitchMAC overwrites
		ev.keySwitchMAC(g, hd, ev.rotationKey(g), be.q0, be.p0, be.q1, be.p1)
		rq.AutomorphismNTT(ct.C0, g, c0, lvl)
		rq.MulLimbScalarsAndAdd(c0, sm.pModQ, sm.pModQShoup, be.q0, lvl)
		babies[b] = be
	}
	if hd != nil {
		hd.Release()
		rq.PutPoly(c0)
	}

	// Giant-step accumulators: every diagonal × baby-accumulator product is
	// folded straight into reduced polynomials ahead of the deferred
	// ModDown. The op lists run baby-major (by baby, then giant), and an
	// accumulator's first product overwrites it.
	var folded []int
	for k := range lt.diags {
		if k%lt.n1 != 0 {
			folded = append(folded, k)
		}
	}
	sort.Slice(folded, func(i, j int) bool {
		bi, bj := folded[i]%lt.n1, folded[j]%lt.n1
		return bi < bj || bi == bj && folded[i] < folded[j]
	})
	accs := map[int]*extAcc{}
	opsQ := make([]ring.FoldOp, 0, 2*len(folded))
	opsP := make([]ring.FoldOp, 0, 2*len(folded))
	for _, k := range folded {
		be, acc := babies[k%lt.n1], accs[k/lt.n1]
		first := acc == nil
		if first {
			acc = newExt()
			accs[k/lt.n1] = acc
		}
		pt, ptP := lt.diags[k].Value, lt.diagsP[k]
		opsQ = append(opsQ, ring.FoldOp{A: pt, B: be.q0, Acc: acc.q0, First: first}, ring.FoldOp{A: pt, B: be.q1, Acc: acc.q1, First: first})
		opsP = append(opsP, ring.FoldOp{A: ptP, B: be.p0, Acc: acc.p0, First: first}, ring.FoldOp{A: ptP, B: be.p1, Acc: acc.p1, First: first})
	}
	rq.Fold(opsQ, lvl)
	rp.Fold(opsP, lp)
	for _, be := range babies {
		putExt(be)
	}

	var out *Ciphertext
	for _, g := range giants {
		group := byGiant[g]
		ev.counters.PMult.Add(int64(len(group))) // diagonal folds
		// One deferred ModDown per component folds the whole giant step's
		// baby products (rotated C0 included) out of the extended basis.
		inner := ctx.GetCiphertextNoZero(lvl, scale)
		acc := accs[g]
		if acc != nil {
			ev.modDown(acc.q0, acc.p0, lvl, 0, inner.C0)
			ev.modDown(acc.q1, acc.p1, lvl, 0, inner.C1)
			putExt(acc)
		}
		// A group is sorted, so its baby-0 diagonal (k = g·n1), if any,
		// comes first. The un-rotated operand has no extended part.
		if k := group[0]; k%lt.n1 == 0 {
			pt := lt.diags[k].Value
			rq.Fold([]ring.FoldOp{
				{A: pt, B: ct.C0, Acc: inner.C0, First: acc == nil},
				{A: pt, B: ct.C1, Acc: inner.C1, First: acc == nil},
			}, lvl)
		}
		if g != 0 {
			rot := ev.Rotate(inner, g*lt.n1)
			ctx.PutCiphertext(inner)
			inner = rot
		}
		if out == nil {
			out = inner
		} else {
			ev.AddInPlace(out, inner)
			ctx.PutCiphertext(inner)
		}
	}

	ev.endSpan(&sp, out)
	return out
}
