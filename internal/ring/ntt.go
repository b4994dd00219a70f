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
// Dispatch is two-dimensional (Engine.RunBlocks): when the active rows alone
// can occupy the pool, each row runs the fused radix-4 kernel as one task
// (the paper's limb-level parallelism — full rows at high levels always take
// the fused path). When they cannot — low-level ciphertexts on a many-core
// host — the rows are transformed stage by stage with every stage's n/2
// radix-2 butterflies sharded into contiguous index blocks across all rows
// (the coefficient dimension of the PE grid): butterflies within one stage
// touch disjoint (j, j+t) pairs, so they are order-independent, and a
// barrier between stages preserves the network's data dependencies. Both
// schedules produce bit-identical outputs: lazy representatives may differ
// mid-network, but every path's last stage reduces to canonical residues.
func (r *Ring) NTT(p *Poly, level int) {
	r.nttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// INTT transforms rows [0..level] of p in place from the NTT domain back to
// the coefficient domain (Butterfly_iNTT: X' = X+Y, Y' = (X-Y)·W^-1, followed
// by scaling with N^-1), with the same kernel hierarchy and dispatch as NTT
// (the fused Gentleman–Sande kernel trails its radix-2 stage, mirroring the
// forward network). The N^-1 scaling rides in the last stage's butterflies:
// sums are multiplied by N^-1 and differences by W^-1·N^-1, which also
// reduces them to canonical residues.
func (r *Ring) INTT(p *Poly, level int) {
	r.inttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// NTTExcept is NTT on rows [0..level] of p minus rows [skipLo..skipHi], which
// are left untouched — for callers that already hold those rows in the NTT
// domain (the key-switch's own decomposition group, see ckks.modUpSlice).
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

// NTTRow transforms a single residue polynomial at prime index i. The
// transform is sharded across the engine like NTT (a one-row call is the
// worst case for limb-only dispatch).
func (r *Ring) NTTRow(row []uint64, i int) {
	r.nttRows([][]uint64{row}, r.Moduli[i:i+1])
}

// INTTRow inverse-transforms a single residue polynomial at prime index i,
// sharded like NTTRow.
func (r *Ring) INTTRow(row []uint64, i int) {
	r.inttRows([][]uint64{row}, r.Moduli[i:i+1])
}

// nttRows forward-transforms rows[i] under moduli ms[i], picking between the
// two schedules: one fused radix-4 task per row when the rows can fill the
// pool, or the stage-sharded radix-2 schedule when they cannot.
func (r *Ring) nttRows(rows [][]uint64, ms []*Modulus) {
	if r.exec.blockCount(len(rows), r.N/2) <= 1 {
		r.exec.Run(len(rows), func(i int) { r.nttRowRadix4(rows[i], ms[i]) })
		return
	}
	n := r.N
	t := n
	for mLen := 1; mLen < n; mLen <<= 1 {
		t >>= 1
		r.exec.RunBlocks(len(rows), n/2, func(i, lo, hi int) {
			nttStageRange(rows[i], ms[i], mLen, t, lo, hi)
		})
	}
}

// inttRows is the inverse counterpart of nttRows.
func (r *Ring) inttRows(rows [][]uint64, ms []*Modulus) {
	if r.exec.blockCount(len(rows), r.N/2) <= 1 {
		r.exec.Run(len(rows), func(i int) { r.inttRowRadix4(rows[i], ms[i]) })
		return
	}
	n := r.N
	t := 1
	for mLen := n; mLen > 1; mLen >>= 1 {
		h := mLen >> 1
		tt := t
		r.exec.RunBlocks(len(rows), n/2, func(i, lo, hi int) {
			inttStageRange(rows[i], ms[i], h, tt, lo, hi)
		})
		t <<= 1
	}
}

// nttStageRange executes butterflies [lo, hi) of one Cooley–Tukey stage on
// row a: the stage has mLen groups of t butterflies each, and butterfly b
// belongs to group g = b/t at offset j = b mod t, touching a[2·g·t+j] and
// a[2·g·t+j+t] with twiddle pair mLen+g. Distinct butterflies of one stage
// touch disjoint pairs, so any partition of [0, n/2) is race-free and
// order-independent. The last stage (t = 1) leaves canonical residues.
func nttStageRange(a []uint64, m *Modulus, mLen, t, lo, hi int) {
	tw := m.psiShoup
	for b := lo; b < hi; {
		g := b / t
		j := b - g*t
		end := min(hi-g*t, t)
		k := mLen + g
		base := 2 * g * t
		// Both views cover exactly the butterflies [j, end) of this group.
		x := a[base+j : base+end : base+end]
		y := a[base+t+j : base+t+end : base+t+end]
		if t == 1 {
			nttButterfliesLast(x, y, tw[2*k], tw[2*k+1], m.Q)
		} else {
			nttButterflies(x, y, tw[2*k], tw[2*k+1], m.Q)
		}
		b = g*t + end
	}
}

// inttStageRange is the Gentleman–Sande counterpart: the stage has h groups
// of t butterflies, butterfly b in group g = b/t at offset j touches
// a[2·g·t+j] and a[2·g·t+j+t] with inverse twiddle pair h+g. The last stage
// (h = 1) folds in the N^-1 scaling.
func inttStageRange(a []uint64, m *Modulus, h, t, lo, hi int) {
	tw := m.psiInvShoup
	var ni, nis, wn, wns uint64
	if h == 1 {
		ni, nis, wn, wns = m.nInvScaled(tw[2])
	}
	for b := lo; b < hi; {
		g := b / t
		j := b - g*t
		end := min(hi-g*t, t)
		k := h + g
		base := 2 * g * t
		x := a[base+j : base+end : base+end]
		y := a[base+t+j : base+t+end : base+t+end]
		if h == 1 {
			inttButterfliesLast(x, y, ni, nis, wn, wns, m.Q)
		} else {
			inttButterflies(x, y, tw[2*k], tw[2*k+1], m.Q)
		}
		b = g*t + end
	}
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

// nttButterfliesLast is nttButterflies for the last stage: outputs are
// reduced to canonical residues.
func nttButterfliesLast(x, y []uint64, w, ws, q uint64) {
	twoQ := 2 * q
	n := min(len(x), len(y))
	for j := 0; j < n; j++ {
		u := x[j]
		if u >= twoQ {
			u -= twoQ
		}
		v := mod.MulShoupLazy(y[j], w, ws, q)
		x[j] = canonical4q(u+v, q)
		y[j] = canonical4q(u+twoQ-v, q)
	}
}

// inttButterflies is one group of radix-2 Gentleman–Sande butterflies,
// x' = x + y and y' = (x − y)·w, inputs and outputs < 2q: the sum pays one
// conditional subtraction, the difference x − y + 2q < 4q feeds the Shoup
// product unreduced and comes out < 2q.
func inttButterflies(x, y []uint64, w, ws, q uint64) {
	twoQ := 2 * q
	n := min(len(x), len(y))
	for j := 0; j < n; j++ {
		u := x[j]
		v := y[j]
		s := u + v
		if s >= twoQ {
			s -= twoQ
		}
		x[j] = s
		y[j] = mod.MulShoupLazy(u+twoQ-v, w, ws, q)
	}
}

// inttButterfliesLast is inttButterflies for the last stage, with the N^-1
// scaling folded in: x' = (x + y)·N^-1 and y' = (x − y)·w·N^-1, canonical,
// given ni = N^-1 and wn = w·N^-1 with their Shoup companions.
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
func (r *Ring) nttRowRadix4(a []uint64, m *Modulus) {
	n := r.N
	q := m.Q
	tw := m.psiShoup
	mLen := 1
	t := n
	if r.LogN&1 == 1 {
		// Odd log2(N): one leading radix-2 stage (mLen=1, the single group
		// with twiddle ψ^brv(1)) leaves an even number of stages for the
		// fused passes.
		nttButterflies(a[:n/2], a[n/2:], tw[2], tw[3], q)
		mLen, t = 2, n/2
	}
	for ; mLen < n>>2; mLen <<= 2 {
		t >>= 1     // first-layer half size
		h := t >> 1 // second-layer half size, the quartet stride
		for g := 0; g < mLen; g++ {
			k := mLen + g
			w1 := tw[2*k : 2*k+2]  // pair k
			w23 := tw[4*k : 4*k+4] // pairs 2k, 2k+1
			base := 2 * g * t
			nttQuartets(a[base:base+h], a[base+h:base+t], a[base+t:base+t+h], a[base+t+h:base+2*t],
				w1[0], w1[1], w23[0], w23[1], w23[2], w23[3], q)
		}
		t >>= 1
	}
	// mLen = n/4: the groups are contiguous quartets, their first-layer
	// twiddles pairs n/4.. and their children pairs n/2.. .
	nttLastPass(a, tw[n/2:n], tw[n:2*n], q)
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
// the trailing radix-2 stage for an odd one.
func (r *Ring) inttRowRadix4(a []uint64, m *Modulus) {
	n := r.N
	q := m.Q
	tw := m.psiInvShoup
	ni, nis, wn, wns := m.nInvScaled(tw[2])
	t := 1
	mLen := n
	for ; mLen >= 4; mLen >>= 2 {
		h2 := mLen >> 2 // fused group count (second-layer groups)
		switch {
		case h2 == 1 && r.LogN&1 == 0:
			// The last stage: one group, twiddle pairs 2, 3 then 1.
			inttLastQuartets(a[:t], a[t:2*t], a[2*t:3*t], a[3*t:4*t],
				tw[4], tw[5], tw[6], tw[7], ni, nis, wn, wns, q)
		case t == 1:
			// Contiguous quartets: child pairs from n/2.., parents from n/4.. .
			inttFirstPass(a, tw[n:2*n], tw[n/2:n], q)
		default:
			for g := 0; g < h2; g++ {
				k := h2 + g
				wA := tw[4*k : 4*k+4] // pairs 2k, 2k+1
				wB := tw[2*k : 2*k+2] // pair k
				base := 4 * g * t
				inttQuartets(a[base:base+t], a[base+t:base+2*t], a[base+2*t:base+3*t], a[base+3*t:base+4*t],
					wA[0], wA[1], wA[2], wA[3], wB[0], wB[1], q)
			}
		}
		t <<= 2
	}
	if mLen == 2 {
		// Odd log2(N): the trailing radix-2 stage (the single group with
		// twiddle ψ^-brv(1)), mirroring the forward kernel's leading stage.
		inttButterfliesLast(a[:n/2], a[n/2:], ni, nis, wn, wns, q)
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
