package ring

// NTT transforms rows [0..level] of p in place from coefficient domain to the
// NTT (evaluation) domain. The transform is the negacyclic number-theoretic
// transform: polynomial multiplication in R_q becomes element-wise
// multiplication of transformed rows (Section 4.1 of the paper).
//
// The implementation is the standard in-place Cooley–Tukey decimation-in-time
// network with twiddle factors stored in bit-reversed order, i.e. the exact
// butterfly the paper's NTTU executes (Butterfly_NTT: X' = X+W·Y, Y' = X-W·Y).
// Twiddles live in Montgomery form and every butterfly multiply is one lazy
// REDC (mod.Montgomery.MulLazy); because a REDC multiply by an M-form
// constant maps x ↦ x·w mod q regardless of x's own form, the network
// preserves the package's Montgomery-form invariant without any conversion.
//
// The row kernel, nttRowRadix4, merges two layers into one pass of radix-4
// butterflies. Each fused pass loads one interleaved twiddle triple per
// group (Modulus.psiFused), processes 4 coefficients per butterfly through
// re-sliced bounds-check-free views, and lets intermediates ride a widened
// [0, 4q) lazy window across the two merged layers — one REDC per multiply,
// conditional corrections only where a following sum could exceed 4q and at
// pass end — halving the passes over the row (and with them the loads,
// stores and loop overhead) relative to radix-2. An odd log2(N) is handled
// by one leading radix-2 stage. The tests pin it to a radix-2 row kernel
// and a plain-form Barrett transform (reference_test.go).
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
// mid-network, but every path ends with the same normalization to canonical
// residues.
func (r *Ring) NTT(p *Poly, level int) {
	r.nttRows(p.Coeffs[:level+1], r.Moduli[:level+1])
}

// INTT transforms rows [0..level] of p in place from the NTT domain back to
// the coefficient domain (Butterfly_iNTT: X' = X+Y, Y' = (X-Y)·W^-1, followed
// by scaling with N^-1), with the same kernel hierarchy and dispatch as NTT
// (the fused Gentleman–Sande kernel trails its radix-2 stage, mirroring the
// forward network). The N^-1 scaling pass doubles as the normalization pass:
// its REDC multiply reduces the lazy values to canonical residues.
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
// pool, or the stage-sharded radix-2 schedule when they cannot. Both finish
// with the lazy→canonical normalization pass.
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
	r.exec.RunBlocks(len(rows), n, func(i, lo, hi int) {
		q := ms[i].Q
		a := rows[i][lo:hi:hi]
		for j := range a {
			if a[j] >= q {
				a[j] -= q
			}
		}
	})
}

// inttRows is the inverse counterpart of nttRows; the trailing N^-1 scaling
// pass is element-wise, sharded over coefficients directly, and normalizes
// the lazy values to canonical residues via its full REDC.
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
	r.exec.RunBlocks(len(rows), n, func(i, lo, hi int) {
		m := ms[i]
		nInvM := m.nInvM
		mr := m.MRed
		a := rows[i][lo:hi:hi]
		for j := range a {
			a[j] = mr.Mul(a[j], nInvM)
		}
	})
}

// nttStageRange executes butterflies [lo, hi) of one Cooley–Tukey stage on
// row a: the stage has mLen groups of t butterflies each, and butterfly b
// belongs to group g = b/t at offset j = b mod t, touching a[2·g·t+j] and
// a[2·g·t+j+t]. Distinct butterflies of one stage touch disjoint pairs, so
// any partition of [0, n/2) is race-free and order-independent. Values stay
// in [0, 2q): the REDC-lazy twiddle product of a value < 2q is < 2q (q has
// two headroom bits below 2^64), and each output pays one conditional
// subtraction of 2q.
func nttStageRange(a []uint64, m *Modulus, mLen, t, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	for b := lo; b < hi; {
		g := b / t
		j := b - g*t
		end := hi - g*t
		if end > t {
			end = t
		}
		w := m.psiRev[mLen+g]
		base := 2 * g * t
		// Re-slice so the compiler can drop the bounds checks: both views
		// cover exactly the butterflies [j, end) of this group.
		x := a[base+j : base+end : base+end]
		y := a[base+t+j : base+t+end : base+t+end]
		y = y[:len(x)]
		for k := range x {
			u := x[k]
			v := mr.MulLazy(y[k], w)
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			d := u + twoQ - v
			if d >= twoQ {
				d -= twoQ
			}
			x[k] = s
			y[k] = d
		}
		b = g*t + end
	}
}

// inttStageRange is the Gentleman–Sande counterpart: the stage has h groups
// of t butterflies, butterfly b in group g = b/t at offset j touches
// a[2·g·t+j] and a[2·g·t+j+t] with twiddle ψ^-1 index h+g. The difference
// path feeds u-v+2q < 4q into the lazy REDC (still inside its input bound,
// 4q < 2^64) and comes out < 2q with no conditional at all; only the sum
// path pays one.
func inttStageRange(a []uint64, m *Modulus, h, t, lo, hi int) {
	twoQ := 2 * m.Q
	mr := m.MRed
	for b := lo; b < hi; {
		g := b / t
		j := b - g*t
		end := hi - g*t
		if end > t {
			end = t
		}
		w := m.psiInvRev[h+g]
		base := 2 * g * t
		x := a[base+j : base+end : base+end]
		y := a[base+t+j : base+t+end : base+t+end]
		y = y[:len(x)]
		for k := range x {
			u := x[k]
			v := y[k]
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			x[k] = s
			y[k] = mr.MulLazy(u+twoQ-v, w)
		}
		b = g*t + end
	}
}

// nttRowRadix4 is the fused forward row kernel: each pass merges two
// consecutive Cooley–Tukey stages into one sweep of radix-4 butterflies. The
// group k = mLen+g loads its interleaved twiddle triple {w1, w2, w3} =
// psiFused[3k..3k+2] (first-layer twiddle, then the two child twiddles of
// the second layer) and transforms quartets (c0, c1, c2, c3) at strides h =
// t/2:
//
//	layer 1:  u0 = c0 + w1·c2   u2 = c0 − w1·c2   (and likewise u1, u3 from c1, c3)
//	layer 2:  v0 = u0 + w2·u1   v1 = u0 − w2·u1   v2 = u2 + w3·u3   v3 = u2 − w3·u3
//
// Intermediates ride a widened [0, 4q) lazy window that extends across pass
// boundaries: quartet outputs are stored uncorrected (< 4q) and the next
// pass corrects only the two values a following sum could push past 4q —
// the additive inputs c0, c1 on load and the additive halves u0, u2 between
// the layers (their uncorrected sums would reach 6q and 8q, past the two
// headroom bits a 62-bit modulus leaves). The multiplicative halves never
// pay a correction at all: any 64-bit value times a canonical twiddle is a
// valid REDC input, so c2, c3, u1, u3 feed their multiplies unreduced. Per
// 4 coefficients a fused pass spends the same 4 REDC multiplies as two
// radix-2 stages but 4 conditional corrections instead of 8 and — the
// actual win on paper-sized rows — half the loads and stores. The trailing
// normalization folds the window back down (two conditional subtractions
// from < 4q), yielding residues bit-identical to the radix-2 kernels.
func (r *Ring) nttRowRadix4(a []uint64, m *Modulus) {
	n := r.N
	q := m.Q
	twoQ := 2 * q
	mr := m.MRed
	fw := m.psiFused
	mLen := 1
	t := n
	if r.LogN&1 == 1 {
		// Odd log2(N): one leading radix-2 stage (mLen=1, the single group
		// with twiddle ψ^brv(1)) leaves an even number of stages for the
		// fused passes.
		t >>= 1
		w := m.psiRev[1]
		x := a[0:t:t]
		y := a[t : 2*t : 2*t]
		y = y[:len(x)]
		for j := range x {
			u := x[j]
			v := mr.MulLazy(y[j], w)
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			d := u + twoQ - v
			if d >= twoQ {
				d -= twoQ
			}
			x[j] = s
			y[j] = d
		}
		mLen = 2
	}
	for ; mLen <= n>>2; mLen <<= 2 {
		t >>= 1     // first-layer half size
		h := t >> 1 // second-layer half size, the quartet stride
		for g := 0; g < mLen; g++ {
			k := mLen + g
			w1 := fw[3*k]
			w2 := fw[3*k+1]
			w3 := fw[3*k+2]
			base := 2 * g * t
			x0 := a[base : base+h : base+h]
			x1 := a[base+h : base+t : base+t]
			x2 := a[base+t : base+t+h : base+t+h]
			x3 := a[base+t+h : base+2*t : base+2*t]
			x1 = x1[:len(x0)]
			x2 = x2[:len(x0)]
			x3 = x3[:len(x0)]
			for j := range x0 {
				c0 := x0[j]
				c1 := x1[j]
				c2 := x2[j]
				c3 := x3[j]
				if c0 >= twoQ {
					c0 -= twoQ
				}
				if c1 >= twoQ {
					c1 -= twoQ
				}
				p2 := mr.MulLazy(c2, w1)
				p3 := mr.MulLazy(c3, w1)
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
				s1 := mr.MulLazy(u1, w2)
				s3 := mr.MulLazy(u3, w3)
				x0[j] = u0 + s1
				x1[j] = u0 + twoQ - s1
				x2[j] = u2 + s3
				x3[j] = u2 + twoQ - s3
			}
		}
		t >>= 1
	}
	for j := range a {
		v := a[j]
		if v >= twoQ {
			v -= twoQ
		}
		if v >= q {
			v -= q
		}
		a[j] = v
	}
}

// inttRowRadix4 is the fused inverse row kernel, merging two consecutive
// Gentleman–Sande stages. The fused group k = mLen/4+g loads its triple
// {wA0, wA1, wB} = psiInvFused[3k..3k+2] (the two first-layer child twiddles,
// then the second-layer parent twiddle) and transforms quartets at stride t:
//
//	layer 1:  u0 = c0 + c1   u1 = (c0 − c1)·wA0   (and u2, u3 from c2, c3)
//	layer 2:  v0 = u0 + u2   v2 = (u0 − u2)·wB    v1 = u1 + u3   v3 = (u1 − u3)·wB
//
// The window discipline mirrors the forward kernel: inputs < 2q, the sums
// u0, u2 reach 4q and pay one conditional each before layer 2 (their sum
// would reach 8q otherwise), the REDC difference paths take their < 4q
// arguments unreduced and emit < 2q, and the remaining sums v0, v1 pay the
// pass-end corrections — 4 conditionals per 4 coefficients, equal to two
// radix-2 stages, with half the memory traffic. Outputs stay < 2q for the
// next pass; the N^-1 scaling pass normalizes exactly as for radix-2.
func (r *Ring) inttRowRadix4(a []uint64, m *Modulus) {
	n := r.N
	twoQ := 2 * m.Q
	mr := m.MRed
	fw := m.psiInvFused
	t := 1
	mLen := n
	for ; mLen >= 4; mLen >>= 2 {
		h2 := mLen >> 2 // fused group count (second-layer groups)
		for g := 0; g < h2; g++ {
			k := h2 + g
			wA0 := fw[3*k]
			wA1 := fw[3*k+1]
			wB := fw[3*k+2]
			base := 4 * g * t
			x0 := a[base : base+t : base+t]
			x1 := a[base+t : base+2*t : base+2*t]
			x2 := a[base+2*t : base+3*t : base+3*t]
			x3 := a[base+3*t : base+4*t : base+4*t]
			x1 = x1[:len(x0)]
			x2 = x2[:len(x0)]
			x3 = x3[:len(x0)]
			for j := range x0 {
				c0 := x0[j]
				c1 := x1[j]
				c2 := x2[j]
				c3 := x3[j]
				u0 := c0 + c1
				u1 := mr.MulLazy(c0+twoQ-c1, wA0)
				u2 := c2 + c3
				u3 := mr.MulLazy(c2+twoQ-c3, wA1)
				if u0 >= twoQ {
					u0 -= twoQ
				}
				if u2 >= twoQ {
					u2 -= twoQ
				}
				v0 := u0 + u2
				if v0 >= twoQ {
					v0 -= twoQ
				}
				v2 := mr.MulLazy(u0+twoQ-u2, wB)
				v1 := u1 + u3
				if v1 >= twoQ {
					v1 -= twoQ
				}
				v3 := mr.MulLazy(u1+twoQ-u3, wB)
				x0[j] = v0
				x1[j] = v1
				x2[j] = v2
				x3[j] = v3
			}
		}
		t <<= 2
	}
	if mLen == 2 {
		// Odd log2(N): the trailing radix-2 stage (the single group with
		// twiddle ψ^-brv(1)), mirroring the forward kernel's leading stage.
		w := m.psiInvRev[1]
		ht := n >> 1
		x := a[0:ht:ht]
		y := a[ht:n:n]
		y = y[:len(x)]
		for j := range x {
			u := x[j]
			v := y[j]
			s := u + v
			if s >= twoQ {
				s -= twoQ
			}
			x[j] = s
			y[j] = mr.MulLazy(u+twoQ-v, w)
		}
	}
	nInvM := m.nInvM
	for j := range a {
		a[j] = mr.Mul(a[j], nInvM)
	}
}

// evalOrderExponent returns e(i) such that, after r.NTT, row index i holds the
// evaluation of the polynomial at ψ^e(i). For the Cooley–Tukey network above,
// e(i) = 2·brv(i)+1 (the odd powers of ψ in bit-reversed order). Automorphism
// permutation tables (Section 5.5) are derived from this indexing.
func (r *Ring) evalOrderExponent(i int) int { return 2*r.brv[i] + 1 }
