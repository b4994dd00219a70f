package ring

import "bts/internal/mod"

// NTT transforms rows [0..level] of p in place from coefficient domain to the
// NTT (evaluation) domain. The transform is the negacyclic number-theoretic
// transform: polynomial multiplication in R_q becomes element-wise
// multiplication of transformed rows (Section 4.1 of the paper).
//
// The implementation is the standard in-place Cooley–Tukey decimation-in-time
// network with twiddle factors stored in bit-reversed order, i.e. the exact
// butterfly the paper's NTTU executes (Butterfly_NTT: X' = X+W·Y, Y' = X-W·Y).
// Every butterfly is Harvey's: the twiddle is a plain residue w with its
// Shoup companion w′ (Modulus.psiShoup), and the product
// x·w − hi(x·w′)·q ∈ [0, 2q) (mod.MulShoupLazy) puts one wide multiply on the
// critical path and accepts any 64-bit x, so values ride a [0, 4q) lazy
// window between stages. A multiply by a plain constant maps x ↦ x·w mod q
// in whichever form x is in, so the network preserves the package's
// Montgomery-form invariant without any conversion.
//
// The row kernel, nttRowRadix4, merges two layers into one pass of radix-4
// butterflies (nttQuartets). Group k reads twiddle pair k and the adjacent
// pairs 2k, 2k+1 of the one table — two sequential streams — and transforms
// 4 coefficients per butterfly through bounds-check-free views, halving the
// passes over the row (and with them the loads, stores and loop overhead)
// relative to radix-2. The last pass (nttLastPass) leaves canonical
// residues, so no normalization pass follows. An odd log2(N) is handled by
// one leading radix-2 stage. The tests pin it to a radix-2 Montgomery row
// kernel and a plain-form Barrett transform (reference_test.go).
//
// Dispatch is limb-level, the paper's limb parallelism: each row runs the
// fused kernel as one engine task, so a transform of k rows occupies at most k
// workers. A row is never split across workers: a radix-2 schedule sharding
// each stage's butterflies across 2 workers, with a barrier per stage, ran a
// one-row N=2^17 transform in 2.49–2.61 ms on a 2-CPU host, against
// 1.99–2.19 ms for the fused kernel on one worker.
//
// Every pass has three tiers, which nttRows and inttRows pick per row
// (Ring.lanes). On amd64 CPUs with AVX-512F and DQ (useLanes, from the
// package's one CPUID probe) and N ≥ 2^nttLanesMinLogN, each pass runs an
// assembly counterpart (ntt_amd64.s, bodies in ntt_passes_amd64.h), eight
// coefficients per zmm register, with the same [0, 4q) window and the same
// canonical last-pass outputs. The DQ tier's Shoup product takes the exact
// high word of x·w′ from four 32×32 VPMULUDQ partial products, so it holds
// for any q < 2^62 and is word for word the Go pass. A modulus below 2^51
// on a CPU that also has AVX-512 IFMA takes an IFMA tier instead
// (Modulus.ifma, fixed when the modulus is built): the same pass bodies
// with x·w − ⌊x·w″/2^52⌋·q from one VPMADD52HUQ and two VPMADD52LUQ, where
// w″ = w′>>12 = ⌊w·2^52/q⌋, so no table is added. The product is exact
// for every multiplied word below 2^52. Below 2^50 (ifmaLanes) the
// [0, 4q) window already keeps them there; from 2^50 (ifma51Lanes) 4q
// passes 2^52, so each multiplicand first drops into [0, 2q) by one
// conditional subtraction of 2q, and the window between passes stays as
// it is. Putting that subtraction on the narrow rows as well cost them
// 17–24 % (N=2^12 NTT 6.9–7.1 → 8.2–9.0 µs on a 45-bit row, interleaved),
// hence two pass sets from one source. The 52-bit quotient can fall one short of the 64-bit one,
// so a lazy word may exceed the Go pass's by q, but the last passes
// reduce and the transform's words are the Go kernel's. Each conditional
// subtraction is one VPMINUQ. Passes with quartet stride ≥ 16 are
// straight loads; the stride-4 pass and the stride-1 passes (nttLastPass,
// inttFirstPass), whose twiddles change every 16 or 4 words, move data
// and twiddles between rows and lanes with in-register permutes
// (VSHUFI64X2, VPERMT2Q). Otherwise the Go passes run; they stay as the
// tiers' oracle (fused_test.go, tiers_test.go). On a 2-CPU Xeon (Sapphire
// Rapids class) the DQ lanes transform an N=2^12 row 2.6–3.9× faster than
// the Go kernel (interleaved minima of two sittings); on a 45-bit row the
// IFMA lanes run 2.3–2.8× faster than the DQ lanes, 27 → 10.3 µs per
// N=2^12 transform and 1.25 → 0.52 ms per N=2^17 one, and on the largest
// NTT prime below 2^51 the wide IFMA passes 2.0–2.4× faster, 17.1–18.1 →
// 8.0–8.5 µs and 0.75–0.92 → 0.36–0.38 ms (BenchmarkNTTKernel, -cpu 1,
// three runs).
func (r *Ring) NTT(p *Poly, level int) {
	r.nttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// INTT transforms rows [0..level] of p in place from the NTT domain back to
// the coefficient domain (Butterfly_iNTT: X' = X+Y, Y' = (X-Y)·W^-1, followed
// by scaling with N^-1), with the same dispatch as NTT (the fused
// Gentleman–Sande kernel trails its radix-2 stage, mirroring the forward
// network). The N^-1 scaling rides in the last stage's butterflies:
// sums are multiplied by N^-1 and differences by W^-1·N^-1, which also
// reduces them to canonical residues.
func (r *Ring) INTT(p *Poly, level int) {
	r.inttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// NTTExcept is NTT on rows [0..level] of p minus rows [skipLo..skipHi], which
// are left untouched — for callers that already hold those rows in the NTT
// domain (the key-switch's own decomposition group, see ckks.decompose).
// The remaining rows go through one dispatch, exactly as NTT's would.
func (r *Ring) NTTExcept(p *Poly, level, skipLo, skipHi int) {
	n := skipLo + max(level-skipHi, 0)
	if n == 0 {
		return
	}
	rows := make([][]uint64, 0, n)
	ms := make([]*Modulus, 0, n)
	for i := 0; i <= level; i++ {
		if i < skipLo || i > skipHi {
			rows = append(rows, p.Coeffs[i])
			ms = append(ms, r.Moduli[i])
		}
	}
	r.nttRows(rows, ms)
}

// INTTRow inverse-transforms a single residue polynomial at prime index i,
// as one engine task.
func (r *Ring) INTTRow(row []uint64, i int) {
	r.inttRows([][]uint64{row}, r.Moduli[i:i+1])
}

// nttRows forward-transforms rows[i] under moduli ms[i], one fused radix-4
// row task per row, each on the tier lanes picks for its modulus.
func (r *Ring) nttRows(rows [][]uint64, ms []*Modulus) {
	r.exec.Run(len(rows), func(i int) { r.nttRowRadix4(rows[i], ms[i], r.lanes(ms[i])) })
}

// inttRows is the inverse counterpart of nttRows.
func (r *Ring) inttRows(rows [][]uint64, ms []*Modulus) {
	r.exec.Run(len(rows), func(i int) { r.inttRowRadix4(rows[i], ms[i], r.lanes(ms[i])) })
}

// nttLanesMinLogN is the smallest ring the lane passes run on: at N = 32
// every pass fills whole registers (the h = 4 pass two groups of 16 words,
// the stride-1 passes eight quartets, the radix-2 stage 16 pairs).
const nttLanesMinLogN = 5

// nttLanes is one lane tier's passes (ntt_amd64.s), each standing for the
// Go pass of the same name, or for a whole nttPass or inttPass.
type nttLanes struct {
	butterflies     func(x, y []uint64, w, ws, q uint64)
	quartets        func(a []uint64, groups, h int, tw1, tw23 []uint64, q uint64)
	lastPass        func(a, tw1, tw2 []uint64, q uint64)
	firstPass       func(a, twA, twB []uint64, q uint64)
	invQuartets     func(a []uint64, groups, t int, twA, twB []uint64, q uint64)
	lastQuartets    func(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)
	butterfliesLast func(x, y []uint64, ni, nis, wn, wns, q uint64)
}

// dqLanes serve any modulus, ifmaLanes only moduli below ifmaNarrowBound
// and ifma51Lanes those below ifmaBound.
var (
	dqLanes = nttLanes{nttButterfliesLanes, nttQuartetsLanes, nttLastPassLanes,
		inttFirstPassLanes, inttQuartetsLanes, inttLastQuartetsLanes, inttButterfliesLastLanes}
	ifmaLanes = nttLanes{nttButterfliesIFMA, nttQuartetsIFMA, nttLastPassIFMA,
		inttFirstPassIFMA, inttQuartetsIFMA, inttLastQuartetsIFMA, inttButterfliesLastIFMA}
	ifma51Lanes = nttLanes{nttButterfliesIFMA51, nttQuartetsIFMA51, nttLastPassIFMA51,
		inttFirstPassIFMA51, inttQuartetsIFMA51, inttLastQuartetsIFMA51, inttButterfliesLastIFMA51}
)

// ifmaNarrowBound bounds the moduli ifmaLanes serve: for q < 2^50 the
// [0, 4q) window lies below 2^52, so every word the passes multiply is a
// whole VPMADD52 operand as it stands.
const ifmaNarrowBound = 1 << 50

// lanes returns the lane passes the row kernels run under m, or nil for
// the Go passes: nil unless the CPU has the lanes (useLanes) and N is at
// least 2^nttLanesMinLogN, then, where m takes the IFMA tier
// (Modulus.ifma), ifmaLanes below ifmaNarrowBound and ifma51Lanes above
// it, and the DQ tier's otherwise.
func (r *Ring) lanes(m *Modulus) *nttLanes {
	switch {
	case !useLanes || r.LogN < nttLanesMinLogN:
		return nil
	case m.ifma && m.Q < ifmaNarrowBound:
		return &ifmaLanes
	case m.ifma:
		return &ifma51Lanes
	}
	return &dqLanes
}

// nInvScaled returns the constants of the inverse transform's last stage,
// which folds the N^-1 scaling into its butterflies: N^-1 for the sums and
// w·N^-1 for the differences (w the last stage's inverse twiddle), each with
// its Shoup companion.
func (m *Modulus) nInvScaled(w uint64) (ni, nis, wn, wns uint64) {
	wn = m.BRed.Mul(w, m.NInv)
	return m.NInv, mod.ShoupPrecomp(m.NInv, m.Q), wn, mod.ShoupPrecomp(wn, m.Q)
}

// nttButterflies is one group of Harvey radix-2 Cooley–Tukey butterflies,
// x' = x + w·y and y' = x − w·y over the pairs (x[j], y[j]), with twiddle w
// and its Shoup companion ws: inputs < 4q, outputs < 4q. x pays one
// conditional subtraction of 2q; y feeds the Shoup product unreduced.
func nttButterflies(x, y []uint64, w, ws, q uint64) {
	twoQ := 2 * q
	n := min(len(x), len(y))
	for j := 0; j < n; j++ {
		u := x[j]
		if u >= twoQ {
			u -= twoQ
		}
		v := mod.MulShoupLazy(y[j], w, ws, q)
		x[j] = u + v
		y[j] = u + twoQ - v
	}
}

// inttButterfliesLast is one group of radix-2 Gentleman–Sande butterflies for
// the last stage of an odd log2(N), with the N^-1 scaling folded in:
// x' = (x + y)·N^-1 and y' = (x − y)·w·N^-1, canonical, given ni = N^-1 and
// wn = w·N^-1 with their Shoup companions.
func inttButterfliesLast(x, y []uint64, ni, nis, wn, wns, q uint64) {
	twoQ := 2 * q
	n := min(len(x), len(y))
	for j := 0; j < n; j++ {
		u := x[j]
		v := y[j]
		x[j] = mod.MulShoup(u+v, ni, nis, q)
		y[j] = mod.MulShoup(u+twoQ-v, wn, wns, q)
	}
}

// canonical4q reduces v < 4q to its canonical residue.
func canonical4q(v, q uint64) uint64 {
	if v >= 2*q {
		v -= 2 * q
	}
	if v >= q {
		v -= q
	}
	return v
}

// nttRowRadix4 is the fused forward row kernel: each pass merges two
// consecutive Cooley–Tukey stages into one sweep of radix-4 butterflies (see
// nttQuartets), with the last pass (quartet stride 1) run by nttLastPass.
// With lanes non-nil every pass runs that tier's counterpart instead, to
// the same words; the caller guarantees N ≥ 2^nttLanesMinLogN, so each lane
// pass gets whole registers.
func (r *Ring) nttRowRadix4(a []uint64, m *Modulus, lanes *nttLanes) {
	n := r.N
	q := m.Q
	tw := m.psiShoup
	butterflies, last := nttButterflies, nttLastPass
	if lanes != nil {
		butterflies, last = lanes.butterflies, lanes.lastPass
	}
	mLen := 1
	if r.LogN&1 == 1 {
		// Odd log2(N): one leading radix-2 stage (mLen=1, the single group
		// with twiddle ψ^brv(1)) leaves an even number of stages for the
		// fused passes.
		butterflies(a[:n/2], a[n/2:], tw[2], tw[3], q)
		mLen = 2
	}
	for ; mLen < n>>2; mLen <<= 2 {
		nttPass(a, mLen, n/(4*mLen), tw, q, lanes)
	}
	// mLen = n/4: the groups are contiguous quartets, their first-layer
	// twiddles pairs n/4.. and their children pairs n/2.. .
	last(a, tw[n/2:n], tw[n:2*n], q)
}

// nttPass is one fused forward pass over the row a: nttQuartets on each of
// its mLen groups of 4h words, group g with twiddle pair k = mLen+g of tw
// and the second layer's pairs 2k, 2k+1. With lanes non-nil its quartets
// pass does the same wherever the groups fill whole registers: h a
// multiple of 8, or 4 with mLen even. h is a power of 4, so in a ring with
// N ≥ 32 that is every pass, the last fused one (h = 4, mLen = n/16)
// included.
func nttPass(a []uint64, mLen, h int, tw []uint64, q uint64, lanes *nttLanes) {
	if lanes != nil && (h%8 == 0 || h == 4 && mLen%2 == 0) {
		lanes.quartets(a[:4*mLen*h], mLen, h, tw[2*mLen:4*mLen], tw[4*mLen:8*mLen], q)
		return
	}
	t := 2 * h // first-layer half size
	for g := 0; g < mLen; g++ {
		k := mLen + g
		w1 := tw[2*k : 2*k+2]  // pair k
		w23 := tw[4*k : 4*k+4] // pairs 2k, 2k+1
		base := 2 * g * t
		nttQuartets(a[base:base+h], a[base+h:base+t], a[base+t:base+t+h], a[base+t+h:base+2*t],
			w1[0], w1[1], w23[0], w23[1], w23[2], w23[3], q)
	}
}

// nttQuartets is one group of radix-4 butterflies: it transforms the quartets
// (x0[j], x1[j], x2[j], x3[j]) through two Cooley–Tukey layers with the
// group's first-layer twiddle w1 and the second layer's pair w2, w3 (each
// with its Shoup companion):
//
//	layer 1:  u0 = c0 + w1·c2   u2 = c0 − w1·c2   (and likewise u1, u3 from c1, c3)
//	layer 2:  v0 = u0 + w2·u1   v1 = u0 − w2·u1   v2 = u2 + w3·u3   v3 = u2 − w3·u3
//
// Values ride the [0, 4q) window across pass boundaries: outputs are stored
// uncorrected and only the values a following sum could push past 4q pay a
// conditional subtraction — the additive inputs c0, c1 on load and the
// additive halves u0, u2 between the layers. The multiplicative halves never
// do: the Shoup product accepts any 64-bit value. Per 4 coefficients a pass
// spends the same 4 multiplies as two radix-2 stages but 4 conditional
// corrections and half the loads and stores.
func nttQuartets(x0, x1, x2, x3 []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64) {
	twoQ := 2 * q
	n := min(len(x0), len(x1), len(x2), len(x3))
	for j := 0; j < n; j++ {
		c0, c1, c2, c3 := x0[j], x1[j], x2[j], x3[j]
		if c0 >= twoQ {
			c0 -= twoQ
		}
		if c1 >= twoQ {
			c1 -= twoQ
		}
		p2 := mod.MulShoupLazy(c2, w1, w1s, q)
		p3 := mod.MulShoupLazy(c3, w1, w1s, q)
		u0 := c0 + p2
		u2 := c0 + twoQ - p2
		u1 := c1 + p3
		u3 := c1 + twoQ - p3
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u2 >= twoQ {
			u2 -= twoQ
		}
		s1 := mod.MulShoupLazy(u1, w2, w2s, q)
		s3 := mod.MulShoupLazy(u3, w3, w3s, q)
		x0[j] = u0 + s1
		x1[j] = u0 + twoQ - s1
		x2[j] = u2 + s3
		x3[j] = u2 + twoQ - s3
	}
}

// nttLastPass runs the last radix-4 pass over the whole row: quartet g is
// a[4g..4g+3], its first-layer twiddle the pair tw1[2g..2g+1] and its
// second-layer pair tw2[4g..4g+3]. Outputs are canonical.
func nttLastPass(a, tw1, tw2 []uint64, q uint64) {
	twoQ := 2 * q
	for len(a) >= 4 && len(tw1) >= 2 && len(tw2) >= 4 {
		c0, c1, c2, c3 := a[0], a[1], a[2], a[3]
		w1, w1s, w2, w2s, w3, w3s := tw1[0], tw1[1], tw2[0], tw2[1], tw2[2], tw2[3]
		if c0 >= twoQ {
			c0 -= twoQ
		}
		if c1 >= twoQ {
			c1 -= twoQ
		}
		p2 := mod.MulShoupLazy(c2, w1, w1s, q)
		p3 := mod.MulShoupLazy(c3, w1, w1s, q)
		u0 := c0 + p2
		u2 := c0 + twoQ - p2
		u1 := c1 + p3
		u3 := c1 + twoQ - p3
		if u0 >= twoQ {
			u0 -= twoQ
		}
		if u2 >= twoQ {
			u2 -= twoQ
		}
		s1 := mod.MulShoupLazy(u1, w2, w2s, q)
		s3 := mod.MulShoupLazy(u3, w3, w3s, q)
		a[0] = canonical4q(u0+s1, q)
		a[1] = canonical4q(u0+twoQ-s1, q)
		a[2] = canonical4q(u2+s3, q)
		a[3] = canonical4q(u2+twoQ-s3, q)
		a, tw1, tw2 = a[4:], tw1[2:], tw2[4:]
	}
}

// inttRowRadix4 is the fused inverse row kernel, merging two consecutive
// Gentleman–Sande stages per pass (see inttQuartets): the first pass
// (quartet stride 1) is inttFirstPass, and the N^-1 scaling rides in the
// last stage — the last radix-4 pass (inttLastQuartets) for an even log2(N),
// the trailing radix-2 stage for an odd one. lanes selects a lane tier's
// passes as in nttRowRadix4.
func (r *Ring) inttRowRadix4(a []uint64, m *Modulus, lanes *nttLanes) {
	n := r.N
	q := m.Q
	tw := m.psiInvShoup
	ni, nis, wn, wns := m.nInvScaled(tw[2])
	first, lastQuartets, butterflies := inttFirstPass, inttLastQuartets, inttButterfliesLast
	if lanes != nil {
		first, lastQuartets, butterflies = lanes.firstPass, lanes.lastQuartets, lanes.butterfliesLast
	}
	t := 1
	mLen := n
	for ; mLen >= 4; mLen >>= 2 {
		h2 := mLen >> 2 // fused group count (second-layer groups)
		switch {
		case h2 == 1 && r.LogN&1 == 0:
			// The last stage: one group, twiddle pairs 2, 3 then 1.
			lastQuartets(a[:t], a[t:2*t], a[2*t:3*t], a[3*t:4*t],
				tw[4], tw[5], tw[6], tw[7], ni, nis, wn, wns, q)
		case t == 1:
			// Contiguous quartets: child pairs from n/2.., parents from n/4.. .
			first(a, tw[n:2*n], tw[n/2:n], q)
		default:
			inttPass(a, h2, t, tw, q, lanes)
		}
		t <<= 2
	}
	if mLen == 2 {
		// Odd log2(N): the trailing radix-2 stage (the single group with
		// twiddle ψ^-brv(1)), mirroring the forward kernel's leading stage.
		butterflies(a[:n/2], a[n/2:], ni, nis, wn, wns, q)
	}
}

// inttPass is one fused inverse pass over the row a: inttQuartets on each
// of its h2 groups of 4t words, group g with the child pairs 2k, 2k+1 of
// tw and the parent pair k = h2+g. With lanes non-nil its invQuartets pass
// does the same wherever the groups fill whole registers, as in nttPass: t
// a multiple of 8, or 4 with h2 = n/16 even.
func inttPass(a []uint64, h2, t int, tw []uint64, q uint64, lanes *nttLanes) {
	if lanes != nil && (t%8 == 0 || t == 4 && h2%2 == 0) {
		lanes.invQuartets(a[:4*h2*t], h2, t, tw[4*h2:8*h2], tw[2*h2:4*h2], q)
		return
	}
	for g := 0; g < h2; g++ {
		k := h2 + g
		wA := tw[4*k : 4*k+4] // pairs 2k, 2k+1
		wB := tw[2*k : 2*k+2] // pair k
		base := 4 * g * t
		inttQuartets(a[base:base+t], a[base+t:base+2*t], a[base+2*t:base+3*t], a[base+3*t:base+4*t],
			wA[0], wA[1], wA[2], wA[3], wB[0], wB[1], q)
	}
}

// inttQuartets is one group of inverse radix-4 butterflies: the first layer's
// two child twiddles wA0, wA1 and the second layer's parent wB (each with
// its Shoup companion) transform the quartets at stride t:
//
//	layer 1:  u0 = c0 + c1   u1 = (c0 − c1)·wA0   (and u2, u3 from c2, c3 with wA1)
//	layer 2:  v0 = u0 + u2   v2 = (u0 − u2)·wB    v1 = u1 + u3   v3 = (u1 − u3)·wB
//
// The window discipline mirrors the forward kernel: inputs < 2q, the sums
// u0, u2 reach 4q and pay one conditional each before layer 2 (their sum
// would reach 8q otherwise), the Shoup difference paths take their < 4q
// arguments unreduced and emit < 2q, and the remaining sums v0, v1 pay the
// pass-end corrections — 4 conditionals per 4 coefficients, equal to two
// radix-2 stages, with half the memory traffic. Outputs stay < 2q.
func inttQuartets(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, wB, wBs, q uint64) {
	twoQ := 2 * q
	n := min(len(x0), len(x1), len(x2), len(x3))
	for j := 0; j < n; j++ {
		c0, c1, c2, c3 := x0[j], x1[j], x2[j], x3[j]
		u0 := c0 + c1
		if u0 >= twoQ {
			u0 -= twoQ
		}
		u2 := c2 + c3
		if u2 >= twoQ {
			u2 -= twoQ
		}
		u1 := mod.MulShoupLazy(c0+twoQ-c1, wA0, wA0s, q)
		u3 := mod.MulShoupLazy(c2+twoQ-c3, wA1, wA1s, q)
		v0 := u0 + u2
		if v0 >= twoQ {
			v0 -= twoQ
		}
		v1 := u1 + u3
		if v1 >= twoQ {
			v1 -= twoQ
		}
		x0[j] = v0
		x1[j] = v1
		x2[j] = mod.MulShoupLazy(u0+twoQ-u2, wB, wBs, q)
		x3[j] = mod.MulShoupLazy(u1+twoQ-u3, wB, wBs, q)
	}
}

// inttFirstPass runs the first inverse radix-4 pass over the whole row:
// quartet g is a[4g..4g+3], its child twiddle pairs twA[4g..4g+3] and its
// parent pair twB[2g..2g+1]. Outputs stay < 2q.
func inttFirstPass(a, twA, twB []uint64, q uint64) {
	twoQ := 2 * q
	for len(a) >= 4 && len(twA) >= 4 && len(twB) >= 2 {
		c0, c1, c2, c3 := a[0], a[1], a[2], a[3]
		wA0, wA0s, wA1, wA1s := twA[0], twA[1], twA[2], twA[3]
		u0 := c0 + c1
		if u0 >= twoQ {
			u0 -= twoQ
		}
		u2 := c2 + c3
		if u2 >= twoQ {
			u2 -= twoQ
		}
		u1 := mod.MulShoupLazy(c0+twoQ-c1, wA0, wA0s, q)
		u3 := mod.MulShoupLazy(c2+twoQ-c3, wA1, wA1s, q)
		v0 := u0 + u2
		if v0 >= twoQ {
			v0 -= twoQ
		}
		v1 := u1 + u3
		if v1 >= twoQ {
			v1 -= twoQ
		}
		a[0], a[1] = v0, v1
		a[2] = mod.MulShoupLazy(u0+twoQ-u2, twB[0], twB[1], q)
		a[3] = mod.MulShoupLazy(u1+twoQ-u3, twB[0], twB[1], q)
		a, twA, twB = a[4:], twA[4:], twB[2:]
	}
}

// inttLastQuartets is inttQuartets for the last stage, with the N^-1 scaling
// folded into layer 2: sums are multiplied by ni = N^-1 and differences by
// wn = wB·N^-1 (with their Shoup companions), and outputs are canonical.
func inttLastQuartets(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64) {
	twoQ := 2 * q
	n := min(len(x0), len(x1), len(x2), len(x3))
	for j := 0; j < n; j++ {
		c0, c1, c2, c3 := x0[j], x1[j], x2[j], x3[j]
		u0 := c0 + c1
		if u0 >= twoQ {
			u0 -= twoQ
		}
		u2 := c2 + c3
		if u2 >= twoQ {
			u2 -= twoQ
		}
		u1 := mod.MulShoupLazy(c0+twoQ-c1, wA0, wA0s, q)
		u3 := mod.MulShoupLazy(c2+twoQ-c3, wA1, wA1s, q)
		x0[j] = mod.MulShoup(u0+u2, ni, nis, q)
		x1[j] = mod.MulShoup(u1+u3, ni, nis, q)
		x2[j] = mod.MulShoup(u0+twoQ-u2, wn, wns, q)
		x3[j] = mod.MulShoup(u1+twoQ-u3, wn, wns, q)
	}
}

// evalOrderExponent returns e(i) such that, after r.NTT, row index i holds the
// evaluation of the polynomial at ψ^e(i). For the Cooley–Tukey network above,
// e(i) = 2·brv(i)+1 (the odd powers of ψ in bit-reversed order). Automorphism
// permutation tables (Section 5.5) are derived from this indexing.
func (r *Ring) evalOrderExponent(i int) int { return 2*r.brv[i] + 1 }
