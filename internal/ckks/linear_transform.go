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
// decomposed once, each baby step costs a slice permutation + MAC kept in
// the extended QP basis, every diagonal is folded in with an element-wise
// plaintext product there, and each giant step pays a single deferred
// ModDown per ciphertext component plus one full rotation.
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
	lp := ctx.special[lvl].k - 1
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
	// rotated C0 (q-basis) and the key-switch MAC accumulators in the
	// extended QP basis — no ModDown yet (double hoisting). A transform
	// whose diagonals all sit on giant-step boundaries has no nonzero baby
	// step and skips the decomposition entirely.
	type babyExt struct {
		c0     *ring.Poly // σ_b(ct.C0), q-basis
		q0, q1 *ring.Poly // key-switch accumulators, q part
		p0, p1 *ring.Poly // key-switch accumulators, p part
	}
	babies := make(map[int]*babyExt, len(need))
	var hd *HoistedDecomposition
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
		}
		ev.counters.HoistedRot.Add(1)
		g := rq.GaloisElement(b)
		be := &babyExt{
			c0: rq.GetPolyNoZero(),
			q0: rq.GetPolyNoZero(), // keySwitchMAC overwrites
			q1: rq.GetPolyNoZero(),
			p0: rp.GetPolyNoZero(),
			p1: rp.GetPolyNoZero(),
		}
		rq.AutomorphismNTT(ct.C0, g, be.c0, lvl)
		ev.keySwitchMAC(g, hd, ev.rotationKey(g), be.q0, be.p0, be.q1, be.p1)
		babies[b] = be
	}
	if hd != nil {
		hd.Release()
	}

	// Giant-step accumulators: the group's diagonal products are folded in
	// lazily as unreduced 128-bit sums (ring.Acc128) — the plain q-basis
	// sums of diagonal × rotated-C0 products, and the extended QP sums of
	// diagonal × key-switch-accumulator products — then reduced once per
	// coefficient before the deferred ModDown. Groups larger than the
	// rings' lazy overflow budget (only reachable with very wide moduli)
	// are folded in chunks: chunk 0 reduces straight into the destination
	// polynomials, later chunks reduce into scratch and modular-add on top.
	plain0 := rq.GetPolyNoZero()
	plain1 := rq.GetPolyNoZero()
	ext0 := rq.GetPolyNoZero()
	ext1 := rq.GetPolyNoZero()
	extP0 := rp.GetPolyNoZero()
	extP1 := rp.GetPolyNoZero()
	merge := rq.GetPolyNoZero()
	mergeP := rp.GetPolyNoZero()
	budget := rq.LazyMACBudget()
	if pb := rp.LazyMACBudget(); pb < budget {
		budget = pb
	}

	var out *Ciphertext
	for _, g := range giants {
		group := byGiant[g]
		hasExt := false
		for start := 0; start < len(group); start += budget {
			end := start + budget
			if end > len(group) {
				end = len(group)
			}
			a0Q := rq.GetAcc(lvl)
			a1Q := rq.GetAcc(lvl)
			a0q := rq.GetAcc(lvl)
			a1q := rq.GetAcc(lvl)
			a0p := rp.GetAcc(lp)
			a1p := rp.GetAcc(lp)
			ev.counters.PMult.Add(int64(end - start)) // diagonal folds (lazy PMults)
			for _, k := range group[start:end] {
				pt, ptP := lt.diags[k].Value, lt.diagsP[k]
				if b := k % lt.n1; b == 0 {
					// The un-rotated operand has no extended part.
					rq.MulCoeffsAndAddLazy(pt, ct.C0, a0Q, lvl)
					rq.MulCoeffsAndAddLazy(pt, ct.C1, a1Q, lvl)
				} else {
					be := babies[b]
					rq.MulCoeffsAndAddLazy(pt, be.c0, a0Q, lvl)
					rq.MulCoeffsAndAddLazy(pt, be.q0, a0q, lvl)
					rp.MulCoeffsAndAddLazy(ptP, be.p0, a0p, lp)
					rq.MulCoeffsAndAddLazy(pt, be.q1, a1q, lvl)
					rp.MulCoeffsAndAddLazy(ptP, be.p1, a1p, lp)
					hasExt = true
				}
			}
			if start == 0 {
				rq.ReduceAcc(a0Q, plain0, lvl)
				rq.ReduceAcc(a1Q, plain1, lvl)
				if hasExt || end < len(group) {
					rq.ReduceAcc(a0q, ext0, lvl)
					rq.ReduceAcc(a1q, ext1, lvl)
					rp.ReduceAcc(a0p, extP0, lp)
					rp.ReduceAcc(a1p, extP1, lp)
				}
			} else {
				rq.ReduceAcc(a0Q, merge, lvl)
				rq.Add(plain0, merge, plain0, lvl)
				rq.ReduceAcc(a1Q, merge, lvl)
				rq.Add(plain1, merge, plain1, lvl)
				rq.ReduceAcc(a0q, merge, lvl)
				rq.Add(ext0, merge, ext0, lvl)
				rq.ReduceAcc(a1q, merge, lvl)
				rq.Add(ext1, merge, ext1, lvl)
				rp.ReduceAcc(a0p, mergeP, lp)
				rp.Add(extP0, mergeP, extP0, lp)
				rp.ReduceAcc(a1p, mergeP, lp)
				rp.Add(extP1, mergeP, extP1, lp)
			}
			rp.PutAcc(a1p)
			rp.PutAcc(a0p)
			rq.PutAcc(a1q)
			rq.PutAcc(a0q)
			rq.PutAcc(a1Q)
			rq.PutAcc(a0Q)
		}

		// One deferred ModDown per component folds the whole giant step's
		// baby products out of the extended basis at once.
		inner := ctx.getCiphertextNoZero(lvl, scale)
		if hasExt {
			ev.modDown(ext0, extP0, lvl, 0, inner.C0)
			ev.modDown(ext1, extP1, lvl, 0, inner.C1)
			rq.Add(inner.C0, plain0, inner.C0, lvl)
			rq.Add(inner.C1, plain1, inner.C1, lvl)
		} else {
			rq.CopyLevel(inner.C0, plain0, lvl)
			rq.CopyLevel(inner.C1, plain1, lvl)
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

	rp.PutPoly(mergeP)
	rq.PutPoly(merge)
	rp.PutPoly(extP1)
	rp.PutPoly(extP0)
	rq.PutPoly(ext1)
	rq.PutPoly(ext0)
	rq.PutPoly(plain1)
	rq.PutPoly(plain0)
	for _, be := range babies {
		rp.PutPoly(be.p1)
		rp.PutPoly(be.p0)
		rq.PutPoly(be.q1)
		rq.PutPoly(be.q0)
		rq.PutPoly(be.c0)
	}
	ev.endSpan(&sp, out)
	return out
}
