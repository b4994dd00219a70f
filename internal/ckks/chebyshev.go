package ckks

import (
	"fmt"
	"math"
)

// ChebyshevCoeffs returns the degree-`degree` Chebyshev interpolation of f
// over [a,b]: coefficients c such that f(x) ≈ Σ c_k T_k(t) with
// t = (2x-(a+b))/(b-a) ∈ [-1,1]. This is how bootstrapping approximates the
// scaled sine that homomorphically realizes the modular reduction
// (Section 2.4: "approximate sine evaluation").
func ChebyshevCoeffs(f func(float64) float64, a, b float64, degree int) []float64 {
	n := degree + 1
	// Chebyshev nodes and function samples.
	fx := make([]float64, n)
	for j := 0; j < n; j++ {
		t := math.Cos(math.Pi * (float64(j) + 0.5) / float64(n))
		x := t*(b-a)/2 + (a+b)/2
		fx[j] = f(x)
	}
	coeffs := make([]float64, n)
	for k := 0; k < n; k++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += fx[j] * math.Cos(math.Pi*float64(k)*(float64(j)+0.5)/float64(n))
		}
		coeffs[k] = 2 * s / float64(n)
	}
	coeffs[0] /= 2
	return coeffs
}

// EvalChebyshevDirect evaluates the Chebyshev expansion at a plain float
// (Clenshaw recurrence) — the reference against which the homomorphic
// evaluation is tested.
func EvalChebyshevDirect(coeffs []float64, t float64) float64 {
	var b1, b2 float64
	for k := len(coeffs) - 1; k >= 1; k-- {
		b1, b2 = coeffs[k]+2*t*b1-b2, b1
	}
	return coeffs[0] + t*b1 - b2
}

// chebDivide divides the Chebyshev-basis polynomial p by T_g:
// p = q·T_g + r, using T_i = 2·T_g·T_{i-g} - T_{|i-2g|}.
func chebDivide(p []float64, g int) (q, r []float64) {
	work := append([]float64(nil), p...)
	d := len(work) - 1
	q = make([]float64, d-g+1)
	for i := d; i >= g; i-- {
		c := work[i]
		if c == 0 {
			continue
		}
		if i == g {
			q[0] += c
		} else {
			q[i-g] += 2 * c
			k := i - 2*g
			if k < 0 {
				k = -k
			}
			work[k] -= c
		}
		work[i] = 0
	}
	r = work[:g]
	return q, r
}

// chebZeroTol is the magnitude below which a Chebyshev coefficient counts as
// zero. trimCheb, the leaves and the support pass that decides which basis
// elements get built all test through chebNonZero, so they cannot disagree
// about which T_k a leaf reads.
const chebZeroTol = 1e-14

func chebNonZero(c float64) bool { return math.Abs(c) >= chebZeroTol }

// trimCheb removes trailing (near-)zero coefficients.
func trimCheb(p []float64) []float64 {
	d := len(p)
	for d > 0 && !chebNonZero(p[d-1]) {
		d--
	}
	return p[:d]
}

// chebGiant returns the giant step a degree-d polynomial is divided by: the
// largest bs·2^j not above d.
func chebGiant(d, bs int) int {
	g := bs
	for g*2 <= d {
		g *= 2
	}
	return g
}

// chebSupport is evalChebPS without the ciphertexts: it marks in need every
// basis index the evaluation of coeffs reads — the T_k its leaves combine
// and the giants its inner nodes multiply by — and returns the levels the
// evaluation consumes. chebPower builds T_k at depth ⌈log2 k⌉ = bitsFor(k);
// a leaf rescales once below its deepest T_k, an inner node once below the
// deeper of its quotient and T_g, and a sum sits at the deeper operand's
// level.
func chebSupport(coeffs []float64, bs int, need []bool) (depth int) {
	coeffs = trimCheb(coeffs)
	if len(coeffs) <= bs {
		for k := 1; k < len(coeffs); k++ {
			if chebNonZero(coeffs[k]) {
				need[k] = true
				depth = max(depth, bitsFor(k))
			}
		}
		return depth + 1
	}
	g := chebGiant(len(coeffs)-1, bs)
	need[g] = true
	qc, rc := chebDivide(coeffs, g)
	dq := chebSupport(qc, bs, need)
	dr := chebSupport(rc, bs, need)
	return max(max(dq, bitsFor(g))+1, dr)
}

// chebPlan is the dry run of EvalChebyshev on trimmed coeffs: the baby-step
// count, the basis indices the evaluation reads and the levels it consumes.
// Baby steps number 2^ceil(m/2) for degree < 2^m.
func chebPlan(coeffs []float64) (bs int, need []bool, depth int) {
	degree := len(coeffs) - 1
	bs = 1 << ((bitsFor(degree+1) + 1) / 2)
	need = make([]bool, degree+1)
	return bs, need, chebSupport(coeffs, bs, need)
}

// chebDepth returns the levels EvalChebyshev consumes evaluating coeffs.
func chebDepth(coeffs []float64) int {
	_, _, depth := chebPlan(trimCheb(coeffs))
	return depth
}

// EvalChebyshev homomorphically evaluates Σ c_k T_k(t) on a ciphertext
// encoding t ∈ [-1,1], with the Paterson–Stockmeyer strategy: baby steps
// T_k, k ≤ bs, giant steps T_{2^j·bs}, and recursive Chebyshev division.
// The basis is demand-driven: a dry run of the recursion (chebSupport) names
// the T_k that are actually read, and only those and what chebPower needs to
// reach them are built — an odd polynomial such as the bootstrap's scaled
// sine never pays for T_6, T_10, T_12 or T_14. The same dry run gives the
// multiplicative depth (chebDepth): 8 levels for the bootstrap's degree-255
// sine on K = 25, whose coefficients trim to degree 209. The result keeps
// scale ≈ Δ. Every product is a MulRelinRescale, and every intermediate goes
// back to the ciphertext pool; ct is only read.
func (ev *Evaluator) EvalChebyshev(ct *Ciphertext, coeffs []float64) (*Ciphertext, error) {
	coeffs = trimCheb(append([]float64(nil), coeffs...))
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("ckks: empty Chebyshev polynomial")
	}
	degree := len(coeffs) - 1
	if degree == 0 {
		out := ev.MulConst(ct, 0, float64(ev.params().Q[ct.Level]))
		out = ev.Rescale(out)
		return ev.AddConst(out, complex(coeffs[0], 0)), nil
	}
	sp := ev.begin(spanChebyshev)
	bs, need, _ := chebPlan(coeffs)
	basis := map[int]*Ciphertext{1: ct}
	for k, read := range need {
		if read {
			ev.chebPower(basis, k)
		}
	}
	out := ev.evalChebPS(coeffs, basis, bs)
	delete(basis, 1) // the caller's
	for _, t := range basis {
		ev.ctx.PutCiphertext(t)
	}
	ev.endSpan(&sp, out)
	return out, nil
}

func bitsFor(v int) int {
	b := 0
	for 1<<b < v {
		b++
	}
	return b
}

// chebPower inserts T_k into the basis using T_{a+b} = 2·T_a·T_b - T_{a-b}
// with a the largest power of two below k (a = b = k/2 when k is one): the
// powers of two are shared by every k, so a sparse support costs one product
// per element plus that chain, and T_k still sits at depth ⌈log2 k⌉ —
// T_a is at depth log2 a, and T_b and T_{a-b}, both below a, no deeper.
func (ev *Evaluator) chebPower(basis map[int]*Ciphertext, k int) {
	if _, ok := basis[k]; ok {
		return
	}
	a := 1 << (bitsFor(k) - 1)
	b := k - a
	ev.chebPower(basis, a)
	ev.chebPower(basis, b)
	prod := ev.MulRelinRescale(basis[a], basis[b])
	dbl := ev.Add(prod, prod)
	var out *Ciphertext
	if a == b {
		out = ev.AddConst(dbl, -1) // T_{2a} = 2T_a² - 1
	} else {
		ev.chebPower(basis, a-b)
		out = ev.Sub(dbl, basis[a-b])
	}
	ev.ctx.PutCiphertext(dbl)
	ev.ctx.PutCiphertext(prod)
	basis[k] = out
}

// evalChebPS is the recursive Paterson–Stockmeyer evaluation: p = q·T_g + r,
// one product per inner node — there is never a sum of degree-2 terms whose
// relinearization could be shared.
func (ev *Evaluator) evalChebPS(coeffs []float64, basis map[int]*Ciphertext, bs int) *Ciphertext {
	coeffs = trimCheb(coeffs)
	if len(coeffs) <= bs {
		return ev.chebLinearCombo(coeffs, basis)
	}
	g := chebGiant(len(coeffs)-1, bs)
	qc, rc := chebDivide(coeffs, g)
	q := ev.evalChebPS(qc, basis, bs)
	r := ev.evalChebPS(rc, basis, bs)
	prod := ev.MulRelinRescale(q, basis[g])
	out := ev.Add(prod, r)
	ev.ctx.PutCiphertext(prod)
	ev.ctx.PutCiphertext(r)
	ev.ctx.PutCiphertext(q)
	return out
}

// chebLinearCombo computes Σ_{k≤deg<bs} c_k·T_k + c_0 in one level: the
// terms are folded straight from the basis elements' rows into one
// accumulator at the lowest level among them, then rescaled once.
func (ev *Evaluator) chebLinearCombo(coeffs []float64, basis map[int]*Ciphertext) *Ciphertext {
	lvl := basis[1].Level
	for k := 1; k < len(coeffs); k++ {
		if !chebNonZero(coeffs[k]) {
			continue
		}
		t := basis[k]
		if t == nil {
			panic(fmt.Sprintf("ckks: Chebyshev leaf reads T_%d, which the support pass did not build", k))
		}
		lvl = min(lvl, t.Level)
	}
	rq := ev.ctx.RingQ
	cScale := float64(ev.params().Q[lvl])
	var acc *Ciphertext
	for k := 1; k < len(coeffs); k++ {
		if !chebNonZero(coeffs[k]) {
			continue
		}
		t := basis[k]
		c := int64(math.Round(coeffs[k] * cScale))
		if acc == nil {
			acc = ev.ctx.getCiphertextNoZero(lvl, t.Scale*cScale)
			rq.MulScalarInt64(t.C0, c, acc.C0, lvl)
			rq.MulScalarInt64(t.C1, c, acc.C1, lvl)
		} else {
			acc.Scale = checkScales(acc.Scale, t.Scale*cScale, "EvalChebyshev")
			rq.MulScalarInt64AndAdd(t.C0, c, acc.C0, lvl)
			rq.MulScalarInt64AndAdd(t.C1, c, acc.C1, lvl)
		}
	}
	if acc == nil {
		// Constant polynomial: build an encryption of c_0 at the basis scale.
		acc = ev.ctx.GetCiphertext(lvl, basis[1].Scale*cScale)
	}
	ev.observeMargin(acc)
	out := ev.Rescale(acc)
	ev.ctx.PutCiphertext(acc)
	if len(coeffs) > 0 && coeffs[0] != 0 {
		shifted := ev.AddConst(out, complex(coeffs[0], 0))
		ev.ctx.PutCiphertext(out)
		out = shifted
	}
	return out
}
