package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

func TestChebyshevCoeffsNumeric(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(2*math.Pi*x) / (2 * math.Pi) }
	coeffs := ChebyshevCoeffs(func(tt float64) float64 { return f(6 * tt) }, -1, 1, 63)
	for _, y := range []float64{-5.9, -5, -1.01, 0.004, 3.99, 5.5, 5.9} {
		tt := y / 6
		got := EvalChebyshevDirect(coeffs, tt)
		want := f(y)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cheb approx at y=%f: got %g want %g", y, got, want)
		}
	}
}

func TestChebDivideIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		d := 8 + rng.Intn(56)
		g := 4 << rng.Intn(3) // 4, 8, or 16
		if g > d {
			g = 4
		}
		p := make([]float64, d+1)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		q, r := chebDivide(p, g)
		// Check p(t) == q(t)*T_g(t) + r(t) at sample points.
		for _, tt := range []float64{-0.9, -0.3, 0.1, 0.77} {
			lhs := EvalChebyshevDirect(p, tt)
			tg := math.Cos(float64(g) * math.Acos(tt))
			rhs := EvalChebyshevDirect(q, tt)*tg + EvalChebyshevDirect(r, tt)
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				t.Fatalf("chebDivide identity failed: d=%d g=%d t=%f lhs=%g rhs=%g", d, g, tt, lhs, rhs)
			}
		}
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	s := newTestSetup(t, 2, []int{})
	rng := rand.New(rand.NewSource(51))
	n := s.params.Slots()
	// Input values in [-1, 1].
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	// A degree-7 polynomial fits the 5-level toy chain.
	coeffs := ChebyshevCoeffs(func(x float64) float64 { return math.Tanh(2 * x) }, -1, 1, 7)
	out, err := s.eval.EvalChebyshev(ct, coeffs)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(out))
	for i := range values {
		want := EvalChebyshevDirect(coeffs, real(values[i]))
		if math.Abs(real(got[i])-want) > 1e-3 {
			t.Fatalf("slot %d: got %g want %g", i, real(got[i]), want)
		}
	}
}

func TestLinearTransformIdentity(t *testing.T) {
	s := newTestSetup(t, 1, []int{})
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(52))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	diags := map[int][]complex128{0: ones(n)}
	lt, err := NewLinearTransform(s.encoder, diags, lvl, float64(s.params.Q[lvl]))
	if err != nil {
		t.Fatal(err)
	}
	out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	got := s.encoder.Decode(s.dec.DecryptNew(out))
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("identity transform error %g", e)
	}
}

func ones(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestLinearTransformDense(t *testing.T) {
	// A random dense 16-diagonal matrix against plain evaluation.
	nDiags := 16
	rots := make([]int, 0)
	for b := 1; b < nDiags; b++ {
		rots = append(rots, b)
	}
	// n1 may group diagonals; add giant steps up to slots.
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	n := s.params.Slots()
	_ = rots
	rng := rand.New(rand.NewSource(53))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	diags := map[int][]complex128{}
	for k := 0; k < nDiags; k++ {
		diags[k] = randomComplex(rng, n, 1)
	}
	lt, err := NewLinearTransform(s.encoder, diags, lvl, float64(s.params.Q[lvl]))
	if err != nil {
		t.Fatal(err)
	}
	out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	got := s.encoder.Decode(s.dec.DecryptNew(out))

	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("dense transform error %g", e)
	}
}

// allRotations returns every rotation either side might need for a BSGS
// transform with up to nDiags diagonals over n slots.
func allRotations(nDiags, n int) []int {
	set := map[int]bool{}
	for n1 := 1; n1 <= n; n1 <<= 1 {
		for b := 0; b < n1 && b < nDiags; b++ {
			set[b] = true
		}
		for g := 0; g*n1 < nDiags; g++ {
			set[g*n1] = true
		}
	}
	var out []int
	for r := range set {
		if r != 0 {
			out = append(out, r)
		}
	}
	return out
}

func TestLinearTransformErrors(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	if _, err := NewLinearTransform(s.encoder, map[int][]complex128{}, 1, 1024); err == nil {
		t.Fatal("expected error for empty diagonal map")
	}
	if _, err := NewLinearTransform(s.encoder, map[int][]complex128{0: make([]complex128, 3)}, 1, 1024); err == nil {
		t.Fatal("expected error for wrong diagonal length")
	}
}

// bootSetup builds a bootstrappable toy instance (LogN=10, insecure, for
// functional verification only).
func bootSetup(t testing.TB) (*testSetup, *Bootstrapper) {
	t.Helper()
	logQ := []int{55}
	for i := 0; i < 14; i++ {
		logQ = append(logQ, 45)
	}
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     logQ,
		LogP:     55,
		Dnum:     2,
		LogScale: 45,
		H:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 7001)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	encoder := NewEncoder(ctx)

	// Build the bootstrapper twice: first keyless to learn the rotations.
	probe := NewEvaluator(ctx, encoder, rlk, nil)
	bt0, err := NewBootstrapper(ctx, encoder, probe, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	rtks := kg.GenRotationKeys(sk, bt0.Rotations(), true)
	eval := NewEvaluator(ctx, encoder, rlk, rtks)
	bt, err := NewBootstrapper(ctx, encoder, eval, DefaultBootstrapParams())
	if err != nil {
		t.Fatal(err)
	}
	s := &testSetup{
		params: params, ctx: ctx, encoder: encoder, kg: kg, sk: sk,
		rlk: rlk, enc: NewEncryptorSK(ctx, sk, 7002), dec: NewDecryptor(ctx, sk), eval: eval,
	}
	return s, bt
}

func TestBootstrapRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping round trip is expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(54))
	n := s.params.Slots()
	values := randomComplex(rng, n, 0.7)

	// Encrypt directly at level 0: a fully exhausted ciphertext.
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	refreshed, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level < 2 {
		t.Fatalf("bootstrap restored only %d levels", refreshed.Level)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(refreshed))
	if e := maxErr(got, values); e > 2e-2 {
		t.Fatalf("bootstrap error %g (want < 2e-2)", e)
	}
	t.Logf("bootstrap: restored to level %d, max error %.3g, scale 2^%.2f",
		refreshed.Level, maxErr(got, values), math.Log2(refreshed.Scale))

	// The refreshed ciphertext must support further multiplications.
	sq := s.eval.Rescale(s.eval.Square(refreshed))
	got = s.encoder.Decode(s.dec.DecryptNew(sq))
	want := make([]complex128, n)
	for i := range want {
		want[i] = values[i] * values[i]
	}
	if e := maxErr(got, want); e > 5e-2 {
		t.Fatalf("post-bootstrap square error %g", e)
	}
}

// TestBootstrapMixedChain bootstraps on a chain whose bootstrap section
// uses wider primes than the working scale — the layout of Table2Literal at
// LogN=12: a 55-bit base prime, 45-bit primes for the SlotToCoeff stages and
// the levels left after refresh, 55-bit primes from the bootstrap section up,
// and three stages per transform. That is the one configuration that turns
// on the working-scale boost, so it pins the boost's round trip: raised after
// ModRaise, shed by the last SlotToCoeff stage.
func TestBootstrapMixedChain(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-chain bootstrap is expensive; skipped with -short")
	}
	// 2^11 slots factor into radix-16/16/8 stages; L=16 covers MinLevels 14
	// with two working levels to spare. The bootstrap section starts at
	// stcLevel+1 = (16-3-7)+1 = 7: 3 CoeffToSlot stages and EvalMod's 7
	// levels.
	logQ := []int{55}
	for lvl := 1; lvl <= 16; lvl++ {
		if lvl >= 7 {
			logQ = append(logQ, 55)
		} else {
			logQ = append(logQ, 45)
		}
	}
	params, err := NewParameters(ParametersLiteral{LogN: 12, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	bp := BootstrapParams{K: 6, SineDegree: 63, CtSStages: 3, StCStages: 3}
	kg := NewKeyGenerator(ctx, 9301)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	encoder := NewEncoder(ctx)
	bt0, err := NewBootstrapper(ctx, encoder, NewEvaluator(ctx, encoder, rlk, nil), bp)
	if err != nil {
		t.Fatal(err)
	}
	eval := NewEvaluator(ctx, encoder, rlk, kg.GenRotationKeys(sk, bt0.Rotations(), true))
	bt, err := NewBootstrapper(ctx, encoder, eval, bp)
	if err != nil {
		t.Fatal(err)
	}
	if bt.scaleBoost <= 1 {
		t.Fatalf("scale boost %g: the wide bootstrap section did not arm it", bt.scaleBoost)
	}

	rng := rand.New(rand.NewSource(9303))
	values := randomComplex(rng, params.Slots(), 0.7)
	pt, _ := encoder.Encode(values, 0, params.Scale)
	ct, err := NewEncryptorSK(ctx, sk, 9302).EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	e := maxErr(encoder.Decode(NewDecryptor(ctx, sk).DecryptNew(out)), values)
	_, stc := bt.Chains()
	t.Logf("mixed chain: boost 2^%.0f, output level %d, scale 2^%.2f, max error %.3g",
		math.Log2(bt.scaleBoost), out.Level, math.Log2(out.Scale), e)
	if e > 2e-2 {
		t.Fatalf("bootstrap error %g above the 2e-2 budget", e)
	}
	if out.Level != stc.OutputLevel() || out.Level != 3 {
		t.Fatalf("output level %d, want the SlotToCoeff chain's %d (16 - 3 - 7 - 3 = 3)", out.Level, stc.OutputLevel())
	}
}

func TestBootstrapRejectsNonZeroLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	pt, _ := s.encoder.Encode([]complex128{0.1}, 1, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	if _, err := bt.Bootstrap(ct); err == nil {
		t.Fatal("expected error for level-1 input")
	}
}

// TestBootstrapRejectsLevelBudgetMismatch swaps in a sine shallower than
// the one the chains were budgeted for: EvalMod then finishes above the
// SlotToCoeff level, which is a budgeting bug and must come back as an
// error rather than be papered over by dropping the spare level.
func TestBootstrapRejectsLevelBudgetMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	bt.sineCoeffs = bt.sineCoeffs[:16] // degree 15: fewer levels than the 7 budgeted
	pt, _ := s.encoder.Encode([]complex128{0.1}, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	_, err := bt.Bootstrap(ct)
	if err == nil || !strings.Contains(err.Error(), "level budget") {
		t.Fatalf("got %v, want a level budget error", err)
	}
}

func TestBootstrapParamsBudget(t *testing.T) {
	bp := DefaultBootstrapParams()
	if got := bp.MinLevels(); got != 12 {
		t.Fatalf("MinLevels=%d want 12 (2-stage CtS + 7 EvalMod + 2-stage StC + 1 margin)", got)
	}
	if got := Table2BootstrapParams().MinLevels(); got != 15 {
		t.Fatalf("Table 2 MinLevels=%d want 15 (3-stage CtS + 8 EvalMod + 3-stage StC + 1 margin)", got)
	}
	// A chain shorter than the budget must be rejected.
	params, err := NewParameters(ParametersLiteral{
		LogN: 10, LogQ: []int{55, 45, 45, 45}, LogP: 55, Dnum: 1, LogScale: 45, H: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := NewContext(params)
	enc := NewEncoder(ctx)
	ev := NewEvaluator(ctx, enc, nil, nil)
	if _, err := NewBootstrapper(ctx, enc, ev, bp); err == nil {
		t.Fatal("expected error for insufficient levels")
	}
}

func TestModRaisePreservesMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("uses the bootstrapping setup; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(55))
	values := randomComplex(rng, s.params.Slots(), 0.7)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	raised := bt.modRaise(bt.eval, ct)
	if raised.Level != s.params.MaxLevel() {
		t.Fatalf("modRaise level=%d want %d", raised.Level, s.params.MaxLevel())
	}
	// Decrypting the raised ct and reducing coefficients mod q0 must give
	// back the message: decode after dropping to level 0.
	raised.DropLevel(0)
	got := s.encoder.Decode(s.dec.DecryptNew(raised))
	if e := maxErr(got, values); e > 1e-6 {
		t.Fatalf("modRaise distorted the message: %g", e)
	}
}

func TestConjugateSplitIdentity(t *testing.T) {
	// (v+conj)/2 + i·(conj-v)·i/2 must reconstruct v; checked homomorphically.
	s := newTestSetup(t, 2, []int{})
	rng := rand.New(rand.NewSource(56))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	conj := s.eval.Conjugate(ct)
	ctR := s.eval.Add(ct, conj)
	ctR.Scale *= 2
	ctI := s.eval.MulByI(s.eval.Sub(conj, ct))
	ctI.Scale *= 2
	re := s.encoder.Decode(s.dec.DecryptNew(ctR))
	im := s.encoder.Decode(s.dec.DecryptNew(ctI))
	for i := range values {
		if math.Abs(real(re[i])-real(values[i])) > 1e-5 ||
			math.Abs(real(im[i])-imag(values[i])) > 1e-5 {
			t.Fatalf("slot %d: split (%v, %v) vs %v", i, re[i], im[i], values[i])
		}
	}
	recon := s.eval.Add(ctR, s.eval.MulByI(ctI))
	got := s.encoder.Decode(s.dec.DecryptNew(recon))
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("conjugate split reconstruction error %g", e)
	}
}

func TestBootstrapPrecisionStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(57))
	values := randomComplex(rng, s.params.Slots(), 0.5)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	refreshed, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(refreshed))
	var sum float64
	for i := range values {
		sum += cmplx.Abs(got[i] - values[i])
	}
	mean := sum / float64(len(values))
	t.Logf("bootstrap mean error %.3g (≈ %.1f bits)", mean, -math.Log2(mean))
	if mean > 5e-3 {
		t.Fatalf("mean bootstrap error %g too large", mean)
	}
}
