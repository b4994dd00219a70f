package ckks

import (
	"math"
	"math/rand"
	"testing"
)

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

// chebSetup is a 12-level toy chain, deep enough for a degree-255
// evaluation, with a ciphertext of values in [-1, 1] at the top level.
func chebSetup(t testing.TB) (*testSetup, *Ciphertext, []complex128) {
	t.Helper()
	logQ := []int{55}
	for i := 0; i < 12; i++ {
		logQ = append(logQ, 45)
	}
	s, _, _ := benchSetupAt(t, ParametersLiteral{LogN: 10, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8}, 0)
	rng := rand.New(rand.NewSource(150))
	values := make([]complex128, s.params.Slots())
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	return s, ct, values
}

// chebPredictMults counts the products EvalChebyshev must spend on coeffs:
// one per inner node of the Paterson–Stockmeyer recursion, and one per basis
// element in the closure of the support set under chebPower's split
// k = 2^j + r (which also reads T_{2^j - r}).
func chebPredictMults(coeffs []float64) int {
	coeffs = trimCheb(coeffs)
	bs, need, _ := chebPlan(coeffs)
	built := map[int]bool{1: true}
	var build func(k int)
	build = func(k int) {
		if built[k] {
			return
		}
		built[k] = true
		a := 1
		for 2*a < k {
			a *= 2
		}
		build(a)
		build(k - a)
		if 2*a != k {
			build(2*a - k)
		}
	}
	for k, read := range need {
		if read {
			build(k)
		}
	}
	var inner func(c []float64) int
	inner = func(c []float64) int {
		c = trimCheb(c)
		if len(c) <= bs {
			return 0
		}
		q, r := chebDivide(c, chebGiant(len(c)-1, bs))
		return 1 + inner(q) + inner(r)
	}
	return len(built) - 1 + inner(coeffs)
}

// TestEvalChebyshevDemandDrivenBasis runs sparse and dense polynomials
// through the evaluator: values against the float reference, the product
// count against the support set — an odd polynomial must not pay for the
// even baby steps, a dense one pays what it always did — and the output
// level, which the sparser basis must not change. The levels consumed must
// equal the dry run's depth (chebDepth), which the bootstrap budgets EvalMod
// by: the two sines are DefaultBootstrapParams' and Table2BootstrapParams'
// own, the latter trimming from degree 255 to 209 and so one level under
// ceil(log2(256))+1.
func TestEvalChebyshevDemandDrivenBasis(t *testing.T) {
	s, ct, values := chebSetup(t)
	rng := rand.New(rand.NewSource(152))
	dense := make([]float64, 64)
	for k := range dense {
		dense[k] = (0.25 + 0.75*rng.Float64()) / 16
		if rng.Intn(2) == 0 {
			dense[k] = -dense[k]
		}
	}
	top := s.params.MaxLevel()

	for _, c := range []struct {
		name      string
		coeffs    []float64
		mults     int // 0: only the prediction is checked
		levelCost int
	}{
		{"odd-63", DefaultBootstrapParams().sineCoeffs(), 0, 7},
		{"odd-255-K25", Table2BootstrapParams().sineCoeffs(), 27, 8},
		{"dense-63", dense, 16, 7},
	} {
		before := s.eval.Counters()
		out, err := s.eval.EvalChebyshev(ct, c.coeffs)
		if err != nil {
			t.Fatal(err)
		}
		got := s.eval.Counters().Sub(before).Mult
		want := chebPredictMults(c.coeffs)
		t.Logf("%s: %d products, output level %d", c.name, got, out.Level)
		if int(got) != want || (c.mults != 0 && want != c.mults) {
			t.Errorf("%s: %d products, support set predicts %d, expected %d", c.name, got, want, c.mults)
		}
		if out.Level != top-c.levelCost {
			t.Errorf("%s: output level %d, want %d", c.name, out.Level, top-c.levelCost)
		}
		if d := chebDepth(c.coeffs); d != c.levelCost {
			t.Errorf("%s: dry-run depth %d, evaluation consumed %d levels", c.name, d, top-out.Level)
		}
		dec := s.encoder.Decode(s.dec.DecryptNew(out))
		worst := 0.0
		for i := range values {
			worst = math.Max(worst, math.Abs(real(dec[i])-EvalChebyshevDirect(c.coeffs, real(values[i]))))
		}
		t.Logf("%s: max error %.3g", c.name, worst)
		if worst > 1e-6 {
			t.Errorf("%s: max error %g", c.name, worst)
		}
	}
}

// TestChebyshevLeafNamesMissingBasis breaks the invariant the support pass
// maintains — every T_k a leaf reads was built — and expects the leaf to say
// which k, not to dereference nil.
func TestChebyshevLeafNamesMissingBasis(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	pt, _ := s.encoder.Encode([]complex128{0.5}, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	defer func() {
		want := "ckks: Chebyshev leaf reads T_3, which the support pass did not build"
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	s.eval.chebLinearCombo([]float64{0, 1, 0, 1}, map[int]*Ciphertext{1: ct})
}

// BenchmarkEvalChebyshev times the bootstrap's EvalMod polynomial (degree-255
// sine on K = 25) and reports the products it spends.
func BenchmarkEvalChebyshev(b *testing.B) {
	s, ct, _ := chebSetup(b)
	coeffs := Table2BootstrapParams().sineCoeffs()
	before := s.eval.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.eval.EvalChebyshev(ct, coeffs)
		if err != nil {
			b.Fatal(err)
		}
		s.ctx.PutCiphertext(out)
	}
	b.ReportMetric(float64(s.eval.Counters().Sub(before).Mult)/float64(b.N), "mults/op")
}
