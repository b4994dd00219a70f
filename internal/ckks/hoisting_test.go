package ckks

import (
	"math/rand"
	"testing"
)

// TestRotateHoistedMatchesRotate is the central hoisting invariant: a
// hoisted rotation (permute the shared decomposition, then MAC) must be
// bit-identical to the naive per-rotation key-switch, at every worker count.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	rotations := []int{1, 3, 7, 16, 100, -1, -5, 0}
	s := newTestSetup(t, 3, rotations)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(42))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, err := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 1, 4} {
		s.ctx.SetWorkers(workers)
		// Duplicate amount exercises the dedup path.
		hoisted := s.eval.RotateHoisted(ct, append([]int{1}, rotations...))
		for _, r := range rotations {
			naive := s.eval.Rotate(ct, r)
			h := hoisted[r]
			if h.Level != naive.Level || h.Scale != naive.Scale {
				t.Fatalf("workers=%d rot=%d: level/scale mismatch", workers, r)
			}
			if !s.ctx.RingQ.Equal(h.C0, naive.C0, naive.Level) ||
				!s.ctx.RingQ.Equal(h.C1, naive.C1, naive.Level) {
				t.Fatalf("workers=%d rot=%d: hoisted rotation not bit-identical to Rotate", workers, r)
			}
			s.ctx.PutCiphertext(naive)
		}
		for _, h := range hoisted {
			s.ctx.PutCiphertext(h)
		}
	}
}

// TestRotateHoistedLowerLevel checks hoisting at a partial decomposition
// group (level not a multiple of alpha) where the last slice is clamped.
func TestRotateHoistedLowerLevel(t *testing.T) {
	rotations := []int{2, 9}
	s := newTestSetup(t, 3, rotations)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(43))
	values := randomComplex(rng, s.params.Slots(), 1)
	for lvl := s.params.MaxLevel() - 1; lvl >= 0; lvl -= 2 {
		pt, err := s.encoder.Encode(values, lvl, s.params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		hoisted := s.eval.RotateHoisted(ct, rotations)
		for _, r := range rotations {
			naive := s.eval.Rotate(ct, r)
			if !s.ctx.RingQ.Equal(hoisted[r].C0, naive.C0, naive.Level) ||
				!s.ctx.RingQ.Equal(hoisted[r].C1, naive.C1, naive.Level) {
				t.Fatalf("level=%d rot=%d: hoisted rotation not bit-identical", lvl, r)
			}
			s.ctx.PutCiphertext(naive)
			s.ctx.PutCiphertext(hoisted[r])
		}
	}
}

// TestLinearTransformHoistedPrecision compares the double-hoisted transform
// (lazy ModDown once per giant step) against the eager reference path on a
// dense random matrix: both must hit the plain result within the transform
// error budget, and the deferred ModDown — whose rounding enters once per
// giant step instead of once per diagonal, un-amplified by the plaintext
// scale — must not be worse than the eager path by more than noise jitter.
func TestLinearTransformHoistedPrecision(t *testing.T) {
	nDiags := 24
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	defer s.ctx.Close()
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(55))
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
	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}

	hoisted := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
	eager := s.eval.Rescale(s.eval.linearTransformEager(ct, lt))

	errHoisted := maxErr(s.encoder.Decode(s.dec.DecryptNew(hoisted)), want)
	errEager := maxErr(s.encoder.Decode(s.dec.DecryptNew(eager)), want)
	t.Logf("dense transform: hoisted err %.3g, eager err %.3g", errHoisted, errEager)
	if errHoisted > 1e-3 {
		t.Fatalf("hoisted transform error %g above budget", errHoisted)
	}
	if errHoisted > 2*errEager+1e-9 {
		t.Fatalf("hoisted transform error %g worse than eager %g beyond jitter", errHoisted, errEager)
	}
}

// TestLinearTransformN1Override pins every power-of-two baby-step count and
// checks the transform result is split-invariant. The last input, {1, 2, 3,
// 5, 6, 7} at n1 = 4, has no index ≡ 0 mod n1 in either giant group, so
// neither group's plain C1 fold receives a product.
func TestLinearTransformN1Override(t *testing.T) {
	nDiags := 8
	s := newTestSetup(t, 2, allRotations(nDiags, 1<<9))
	defer s.ctx.Close()
	n := s.params.Slots()
	rng := rand.New(rand.NewSource(56))
	values := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()
	pt, _ := s.encoder.Encode(values, lvl, s.params.Scale)
	ct, _ := s.enc.EncryptNew(pt)
	all := map[int][]complex128{}
	for k := 0; k < nDiags; k++ {
		all[k] = randomComplex(rng, n, 1)
	}
	noBaby0 := map[int][]complex128{}
	for _, k := range []int{1, 2, 3, 5, 6, 7} {
		noBaby0[k] = all[k]
	}
	for _, c := range []struct {
		diags map[int][]complex128
		n1s   []int
	}{
		{all, []int{1, 2, 8, 16}},
		{noBaby0, []int{4}},
	} {
		want := make([]complex128, n)
		for j := 0; j < n; j++ {
			for k, d := range c.diags {
				want[j] += d[j] * values[(j+k)%n]
			}
		}
		for _, n1 := range c.n1s {
			lt, err := newLinearTransformN1(s.encoder, c.diags, lvl, float64(s.params.Q[lvl]), n1)
			if err != nil {
				t.Fatal(err)
			}
			out := s.eval.Rescale(s.eval.LinearTransform(ct, lt))
			if e := maxErr(s.encoder.Decode(s.dec.DecryptNew(out)), want); e > 1e-3 {
				t.Fatalf("%d diagonals, n1=%d: transform error %g", len(c.diags), n1, e)
			}
			s.ctx.PutCiphertext(out)
		}
	}
}

// TestLinearTransformWidePrimeSingleGroup folds a dense transform over ~61-bit
// primes, the widest products the reduced MAC takes, as a single giant group
// (n1 = slots, every diagonal summed into the same accumulators), and checks
// it against the eager path within the error budget.
func TestLinearTransformWidePrimeSingleGroup(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{61, 61},
		LogP:     61,
		Dnum:     1,
		LogScale: 40,
		H:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	n := params.Slots()

	kg := NewKeyGenerator(ctx, 6001)
	sk := kg.GenSecretKey()
	encoder := NewEncoder(ctx)
	enc := NewEncryptorSK(ctx, sk, 6002)
	dec := NewDecryptor(ctx, sk)
	rng := rand.New(rand.NewSource(58))
	values := randomComplex(rng, n, 1)
	lvl := params.MaxLevel()
	pt, _ := encoder.Encode(values, lvl, params.Scale)
	ct, err := enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	diags := map[int][]complex128{}
	for k := 0; k < n; k++ {
		d := make([]complex128, n)
		for j := range d {
			d[j] = randomComplex(rng, 1, 1)[0] / complex(float64(n), 0)
		}
		diags[k] = d
	}
	// n1 = slots puts every diagonal in one giant group.
	lt, err := newLinearTransformN1(encoder, diags, lvl, float64(params.Q[lvl]), n)
	if err != nil {
		t.Fatal(err)
	}
	rtks := kg.GenRotationKeys(sk, lt.Rotations(), false)
	eval := NewEvaluator(ctx, encoder, nil, rtks)

	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	hoisted := eval.Rescale(eval.LinearTransform(ct, lt))
	eager := eval.Rescale(eval.linearTransformEager(ct, lt))
	errHoisted := maxErr(encoder.Decode(dec.DecryptNew(hoisted)), want)
	errEager := maxErr(encoder.Decode(dec.DecryptNew(eager)), want)
	t.Logf("single-group transform (%d diags): hoisted err %.3g, eager err %.3g", n, errHoisted, errEager)
	if errHoisted > 1e-3 {
		t.Fatalf("single-group hoisted transform error %g above budget", errHoisted)
	}
	if errHoisted > 2*errEager+1e-9 {
		t.Fatalf("single-group hoisted error %g worse than eager %g beyond jitter", errHoisted, errEager)
	}
}

// TestBootstrapHoistedRegression runs the bootstrapper's own CoeffToSlot and
// SlotToCoeff chains hoisted and through the eager oracle, stage by stage on
// the same input: both must land within the transform budget of the plain
// result and of each other, and the hoisted chain must be no less precise
// than the eager one beyond noise jitter. Inputs are sized the way the
// bootstrap feeds each chain — CoeffToSlot sees slot values amplified by
// 2K·q0/Δ and scales them back down, SlotToCoeff sees them shrunk by q0/Δ
// and scales them back up — so both outputs are O(1).
func TestBootstrapHoistedRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("chain comparison at the bootstrapping instance is expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(57))
	n := s.params.Slots()
	q0OverDelta := float64(s.params.Q[0]) / s.params.Scale
	cts, stc := bt.Chains()
	for _, tc := range []struct {
		name  string
		chain *TransformChain
		in    float64 // input slot magnitude relative to the plain operand
		plain func([]complex128)
	}{
		{"CoeffToSlot", cts, 2 * DefaultBootstrapParams().K * q0OverDelta, func(v []complex128) { s.encoder.fftSpecialInv(v); bitReverseInPlace(v) }},
		{"SlotToCoeff", stc, 1 / q0OverDelta, func(v []complex128) { bitReverseInPlace(v); s.encoder.fftSpecial(v) }},
	} {
		values := randomComplex(rng, n, 0.7)
		in := make([]complex128, n)
		for i := range in {
			in[i] = values[i] * complex(tc.in, 0)
		}
		pt, _ := s.encoder.Encode(in, tc.chain.Level(), s.params.Scale)
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		hoisted, err := s.eval.TransformChain(ct, tc.chain)
		if err != nil {
			t.Fatal(err)
		}
		eager := s.eval.transformChainEager(ct, tc.chain)
		if hoisted.Level != eager.Level || hoisted.Level != tc.chain.OutputLevel() {
			t.Fatalf("%s: hoisted output level %d, eager %d, chain %d", tc.name, hoisted.Level, eager.Level, tc.chain.OutputLevel())
		}

		want := append([]complex128(nil), values...)
		tc.plain(want)
		hoistedVals := s.encoder.Decode(s.dec.DecryptNew(hoisted))
		eagerVals := s.encoder.Decode(s.dec.DecryptNew(eager))
		errHoisted := maxErr(hoistedVals, want)
		errEager := maxErr(eagerVals, want)
		delta := maxErr(hoistedVals, eagerVals)
		t.Logf("%s (%d stages): hoisted err %.3g, eager err %.3g, delta %.3g", tc.name, tc.chain.Depth(), errHoisted, errEager, delta)
		if errHoisted > 1e-4 || delta > 1e-4 {
			t.Fatalf("%s: hoisted error %g / hoisted-eager delta %g above budget 1e-4", tc.name, errHoisted, delta)
		}
		if errHoisted > 2*errEager+1e-9 {
			t.Fatalf("%s: hoisted error %g worse than eager %g beyond jitter", tc.name, errHoisted, errEager)
		}
	}
}

func TestRotateHoistedMissingKeyPanics(t *testing.T) {
	s := newTestSetup(t, 2, []int{1})
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(44))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, 2, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing rotation key")
		}
	}()
	s.eval.RotateHoisted(ct, []int{1, 2})
}
