package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// testSetup bundles everything needed to exercise the scheme.
type testSetup struct {
	params  Parameters
	ctx     *Context
	encoder *Encoder
	kg      *KeyGenerator
	sk      *SecretKey
	rlk     *SwitchingKey
	enc     *Encryptor
	dec     *Decryptor
	eval    *Evaluator
}

func newTestSetup(t testing.TB, dnum int, rotations []int) *testSetup {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40, 40, 40},
		LogP:     51,
		Dnum:     dnum,
		LogScale: 40,
		H:        64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(ctx, 1001)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	var rtks *RotationKeySet
	if rotations != nil {
		rtks = kg.GenRotationKeys(sk, rotations, true)
	}
	encoder := NewEncoder(ctx)
	return &testSetup{
		params:  params,
		ctx:     ctx,
		encoder: encoder,
		kg:      kg,
		sk:      sk,
		rlk:     rlk,
		enc:     NewEncryptorSK(ctx, sk, 2002),
		dec:     NewDecryptor(ctx, sk),
		eval:    NewEvaluator(ctx, encoder, rlk, rtks),
	}
}

func randomComplex(rng *rand.Rand, n int, bound float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex((2*rng.Float64()-1)*bound, (2*rng.Float64()-1)*bound)
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestParametersValidate(t *testing.T) {
	good, err := NewParameters(ParametersLiteral{
		LogN: 10, LogQ: []int{50, 40, 40}, LogP: 51, Dnum: 1, LogScale: 40, H: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := good.Alpha(); got != 3 {
		t.Fatalf("Alpha=%d want 3", got)
	}
	if got := good.Beta(2); got != 1 {
		t.Fatalf("Beta(2)=%d want 1", got)
	}
	if good.LogQP() < 280 || good.LogQP() > 290 {
		t.Fatalf("LogQP=%.1f outside expectation", good.LogQP())
	}

	bad := good
	bad.Dnum = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected Dnum=0 to fail validation")
	}
	bad = good
	bad.P = bad.P[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("expected wrong special-prime count to fail validation")
	}
	bad = good
	bad.H = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected H=0 to fail validation")
	}
}

func TestParametersBetaDnum(t *testing.T) {
	p, err := NewParameters(ParametersLiteral{
		LogN: 10, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: 51, Dnum: 3, LogScale: 40, H: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Alpha(); got != 2 {
		t.Fatalf("Alpha=%d want 2", got)
	}
	// Level 5 spans all 3 groups; level 1 only the first.
	if got := p.Beta(5); got != 3 {
		t.Fatalf("Beta(5)=%d want 3", got)
	}
	if got := p.Beta(1); got != 1 {
		t.Fatalf("Beta(1)=%d want 1", got)
	}
	if got := p.Beta(2); got != 2 {
		t.Fatalf("Beta(2)=%d want 2", got)
	}
}

func TestSpecialFFTRoundTrip(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(30))
	vals := randomComplex(rng, s.params.Slots(), 1)
	orig := append([]complex128(nil), vals...)
	s.encoder.fftSpecialInv(vals)
	s.encoder.fftSpecial(vals)
	if e := maxErr(vals, orig); e > 1e-9 {
		t.Fatalf("special FFT roundtrip error %g", e)
	}
}

func TestEncodeDecode(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(31))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, err := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(pt)
	if e := maxErr(got, values); e > 1e-8 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncodeReplicates(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	vals := []complex128{1 + 2i, 3 - 4i}
	pt, err := s.encoder.Encode(vals, s.params.MaxLevel(), s.params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(pt)
	for i := range got {
		if cmplx.Abs(got[i]-vals[i%2]) > 1e-8 {
			t.Fatalf("slot %d: got %v want %v", i, got[i], vals[i%2])
		}
	}
	if _, err := s.encoder.Encode(nil, 0, s.params.Scale); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := s.encoder.Encode(make([]complex128, 3), 0, s.params.Scale); err == nil {
		t.Fatal("expected error for non-divisor length")
	}
}

func TestEncryptDecryptSK(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(32))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	got := s.encoder.Decode(s.dec.DecryptNew(ct))
	if e := maxErr(got, values); e > 1e-6 {
		t.Fatalf("sk encrypt/decrypt error %g", e)
	}
	if _, err := NewEncryptorSK(s.ctx, nil, 1).EncryptNew(pt); err == nil {
		t.Fatal("encryptor with a nil secret key returned no error")
	}
}

// TestSecretKeyIsSparseTernary checks GenSecretKey's distribution: every
// coefficient in {-1, 0, 1}, exactly H of them nonzero.
func TestSecretKeyIsSparseTernary(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rq := s.ctx.RingQ
	lvl := rq.MaxLevel()
	coeffs := rq.NewPolyLevel(lvl)
	rq.CopyLevel(coeffs, s.sk.Value.Q, lvl)
	rq.INTT(coeffs, lvl)
	nonzero := 0
	for _, v := range rq.PolyToBigCentered(coeffs, lvl) {
		switch v.Int64() {
		case 0:
		case 1, -1:
			nonzero++
		default:
			t.Fatalf("secret coefficient %v is not ternary", v)
		}
	}
	if nonzero != s.params.H {
		t.Fatalf("secret Hamming weight = %d, want %d", nonzero, s.params.H)
	}
}

func TestHAdd(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(34))
	v0 := randomComplex(rng, s.params.Slots(), 1)
	v1 := randomComplex(rng, s.params.Slots(), 1)
	pt0, _ := s.encoder.Encode(v0, s.params.MaxLevel(), s.params.Scale)
	pt1, _ := s.encoder.Encode(v1, s.params.MaxLevel(), s.params.Scale)
	ct0, _ := s.enc.EncryptNew(pt0)
	ct1, _ := s.enc.EncryptNew(pt1)
	sum := s.eval.Add(ct0, ct1)
	diff := s.eval.Sub(ct0, ct1)
	neg := s.eval.Neg(ct0)

	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = v0[i] + v1[i]
	}
	if e := maxErr(s.encoder.Decode(s.dec.DecryptNew(sum)), want); e > 1e-6 {
		t.Fatalf("HAdd error %g", e)
	}
	for i := range want {
		want[i] = v0[i] - v1[i]
	}
	if e := maxErr(s.encoder.Decode(s.dec.DecryptNew(diff)), want); e > 1e-6 {
		t.Fatalf("HSub error %g", e)
	}
	for i := range want {
		want[i] = -v0[i]
	}
	if e := maxErr(s.encoder.Decode(s.dec.DecryptNew(neg)), want); e > 1e-6 {
		t.Fatalf("Neg error %g", e)
	}
}

func TestHMultRescale(t *testing.T) {
	for _, dnum := range []int{1, 2, 3, 6} {
		s := newTestSetup(t, dnum, nil)
		rng := rand.New(rand.NewSource(35))
		v0 := randomComplex(rng, s.params.Slots(), 1)
		v1 := randomComplex(rng, s.params.Slots(), 1)
		pt0, _ := s.encoder.Encode(v0, s.params.MaxLevel(), s.params.Scale)
		pt1, _ := s.encoder.Encode(v1, s.params.MaxLevel(), s.params.Scale)
		ct0, _ := s.enc.EncryptNew(pt0)
		ct1, _ := s.enc.EncryptNew(pt1)
		prod := s.eval.MulRelin(ct0, ct1)
		prod = s.eval.Rescale(prod)
		if prod.Level != s.params.MaxLevel()-1 {
			t.Fatalf("dnum=%d: level after rescale = %d", dnum, prod.Level)
		}
		want := make([]complex128, len(v0))
		for i := range want {
			want[i] = v0[i] * v1[i]
		}
		got := s.encoder.Decode(s.dec.DecryptNew(prod))
		if e := maxErr(got, want); e > 1e-4 {
			t.Fatalf("dnum=%d: HMult error %g", dnum, e)
		}
	}
}

func TestHMultChain(t *testing.T) {
	// Multiply down the entire modulus chain: x^(2^L) of |x|<1 values.
	s := newTestSetup(t, 2, nil)
	rng := rand.New(rand.NewSource(36))
	v := randomComplex(rng, s.params.Slots(), 0.9)
	pt, _ := s.encoder.Encode(v, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	want := append([]complex128(nil), v...)
	for ct.Level > 0 {
		ct = s.eval.Rescale(s.eval.Square(ct))
		for i := range want {
			want[i] *= want[i]
		}
	}
	got := s.encoder.Decode(s.dec.DecryptNew(ct))
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("deep mult chain error %g", e)
	}
}

func TestRotationDirection(t *testing.T) {
	// Pins the convention: Rotate(ct, r) shifts the message left by r:
	// out_j = in_{j+r mod n} (the paper's HRot, Section 2.3).
	s := newTestSetup(t, 1, []int{1, 3})
	n := s.params.Slots()
	values := make([]complex128, n)
	for i := range values {
		values[i] = complex(float64(i), 0)
	}
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	for _, r := range []int{1, 3} {
		rot := s.eval.Rotate(ct, r)
		got := s.encoder.Decode(s.dec.DecryptNew(rot))
		for j := 0; j < n; j++ {
			want := values[(j+r)%n]
			if cmplx.Abs(got[j]-want) > 1e-4 {
				t.Fatalf("Rotate(%d): slot %d = %v, want %v", r, j, got[j], want)
			}
		}
	}
}

func TestRotateNegativeAndZero(t *testing.T) {
	s := newTestSetup(t, 1, []int{-2})
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(37))
	values := randomComplex(rng, n, 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	rot := s.eval.Rotate(ct, -2)
	got := s.encoder.Decode(s.dec.DecryptNew(rot))
	for j := 0; j < n; j++ {
		want := values[((j-2)%n+n)%n]
		if cmplx.Abs(got[j]-want) > 1e-4 {
			t.Fatalf("Rotate(-2): slot %d = %v, want %v", j, got[j], want)
		}
	}
	same := s.eval.Rotate(ct, 0)
	got = s.encoder.Decode(s.dec.DecryptNew(same))
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("Rotate(0) error %g", e)
	}
}

func TestConjugate(t *testing.T) {
	s := newTestSetup(t, 2, []int{})
	rng := rand.New(rand.NewSource(38))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	conj := s.eval.Conjugate(ct)
	got := s.encoder.Decode(s.dec.DecryptNew(conj))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = cmplx.Conj(values[i])
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("Conjugate error %g", e)
	}
}

func TestMulByI(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(39))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	cti := s.eval.MulByI(ct)
	got := s.encoder.Decode(s.dec.DecryptNew(cti))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = values[i] * 1i
	}
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("MulByI error %g", e)
	}
}

func TestAddConstMulConst(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(40))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)

	c := 0.75 - 1.25i
	added := s.eval.AddConst(ct, c)
	got := s.encoder.Decode(s.dec.DecryptNew(added))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = values[i] + c
	}
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("AddConst error %g", e)
	}

	qTop := float64(s.params.Q[ct.Level])
	mult := s.eval.MulConst(ct, c, qTop)
	mult = s.eval.Rescale(mult)
	got = s.encoder.Decode(s.dec.DecryptNew(mult))
	for i := range want {
		want[i] = values[i] * c
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("MulConst error %g", e)
	}
}

func TestMulPlain(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(41))
	values := randomComplex(rng, s.params.Slots(), 1)
	weights := randomComplex(rng, s.params.Slots(), 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	wpt, _ := s.encoder.Encode(weights, lvl, float64(s.params.Q[lvl]))
	prod := s.eval.Rescale(s.eval.MulPlain(ct, wpt))
	got := s.encoder.Decode(s.dec.DecryptNew(prod))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = values[i] * weights[i]
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("MulPlain error %g", e)
	}
}

func TestAddPlain(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(42))
	values := randomComplex(rng, s.params.Slots(), 1)
	deltas := randomComplex(rng, s.params.Slots(), 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	dpt, _ := s.encoder.Encode(deltas, lvl, s.params.Scale)
	sum := s.eval.AddPlain(ct, dpt)
	got := s.encoder.Decode(s.dec.DecryptNew(sum))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = values[i] + deltas[i]
	}
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("AddPlain error %g", e)
	}
}

func TestDropLevel(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(43))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	ct.DropLevel(1)
	got := s.encoder.Decode(s.dec.DecryptNew(ct))
	if e := maxErr(got, values); e > 1e-6 {
		t.Fatalf("DropLevel changed the message: %g", e)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DropLevel upward should panic")
		}
	}()
	ct.DropLevel(5)
}

func TestScaleMismatchPanics(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	pt, _ := s.encoder.Encode([]complex128{1}, s.params.MaxLevel(), s.params.Scale)
	ct0, _ := s.enc.EncryptNew(pt)
	ct1 := ct0.CopyNew(s.ctx)
	ct1.Scale = ct0.Scale * 2
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched scales should panic")
		}
	}()
	s.eval.Add(ct0, ct1)
}

func TestSwitchingKeyBytes(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	// The b half of 2·N·(k+L+1)·dnum·8 bytes (Section 2.5 item ii), plus the
	// seed that regenerates the a half.
	p := s.params
	want := int64(p.N())*int64(len(p.Q)+len(p.P))*int64(p.Dnum)*8 + 32
	if got := s.rlk.Bytes(); got != want {
		t.Fatalf("SwitchingKey.Bytes=%d want %d", got, want)
	}
	if got := p.SwitchingKeyBytes(); got != want {
		t.Fatalf("Parameters.SwitchingKeyBytes=%d want %d", got, want)
	}
}

func TestNoiseBudget(t *testing.T) {
	// The decryption error of a fresh sk-encryption must be far below the
	// scale: relative error under 2^-25 at Δ=2^40 with σ=3.2.
	s := newTestSetup(t, 1, nil)
	rng := rand.New(rand.NewSource(44))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	got := s.encoder.Decode(s.dec.DecryptNew(ct))
	if e := maxErr(got, values); e > math.Exp2(-25) {
		t.Fatalf("fresh encryption error %g exceeds 2^-25", e)
	}
}
