package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Tests of the level-aware special modulus: the prefix P_ℓ of the special
// chain a key-switch at level ℓ divides by, and the lift [(P/P_ℓ)^-1]_{q_i}
// that makes the full-P keys work for it.

// workloadLiterals are the benchmark's parameter shapes besides the Table 2
// instance: the dnum 3 primitives at N=2^17, the dnum 4 network layer at
// N=2^14 and the dnum 3 serving shape at N=2^12.
var workloadLiterals = map[string]ParametersLiteral{
	"prim":    {LogN: 17, LogQ: []int{60, 50, 50, 50, 50, 50, 50, 50, 50}, LogP: 60, Dnum: 3, LogScale: 50, H: 192},
	"nnlayer": {LogN: 14, LogQ: []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45}, LogP: 55, Dnum: 4, LogScale: 45, H: 192},
	"serve":   {LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40, 40, 40}, LogP: 51, Dnum: 3, LogScale: 40, H: 64},
}

func mustParams(t testing.TB, lit ParametersLiteral) Parameters {
	t.Helper()
	p, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func specialCounts(p Parameters) []int {
	ks := make([]int, p.MaxLevel()+1)
	for l := range ks {
		ks[l] = p.SpecialPrimes(l)
	}
	return ks
}

// TestSpecialPrimesTable2 pins k_ℓ for the Table 2 instance at the paper's
// N=2^17 and at the benchmark's N=2^12: the √N in the margin moves it from 14
// to 17 bits, which no level's prefix notices. At the top level the switch
// works over log Q_27 + log P_26 = 3080 bits of the 3200 the keys store.
func TestSpecialPrimesTable2(t *testing.T) {
	want := []int{2, 3, 3, 4, 5, 6, 7, 8, 8, 9, 10, 11, 12, 13, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26}
	for _, logN := range []int{12, 17} {
		lit := Table2Literal()
		lit.LogN = logN
		p := mustParams(t, lit)
		if got := specialCounts(p); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("N=2^%d: k_ℓ = %v, want %v", logN, got, want)
		}
		used := p.LogQP()
		for _, pk := range p.P[p.SpecialPrimes(p.MaxLevel()):] {
			used -= math.Log2(float64(pk))
		}
		if math.Round(used) != 3080 || math.Round(p.LogQP()) != 3200 {
			t.Fatalf("N=2^%d: top-level switch over %.0f of %.0f bits, want 3080 of 3200", logN, used, p.LogQP())
		}
	}
}

// TestSpecialPrimesWorkloadShapes: the dnum ≥ 3 shapes already size P for a
// group digit with little to spare, so from level 2 up they keep all of it.
func TestSpecialPrimesWorkloadShapes(t *testing.T) {
	for name, lit := range workloadLiterals {
		p := mustParams(t, lit)
		for l, k := range specialCounts(p) {
			if l >= 2 && k != p.Alpha() {
				t.Errorf("%s: k_%d = %d, want alpha = %d", name, l, k, p.Alpha())
			}
		}
	}
}

// TestSpecialPrimesShortestPrefix checks every level of every shape against
// the bound computed independently in big integers: P_ℓ clears
// largest digit · 2^⌈log2(σ·√N·(α+1))⌉+1, the next shorter prefix does not,
// and k_ℓ never falls as ℓ grows (LinearTransform below its encoding level
// reads a prefix of the P-part diagonals).
func TestSpecialPrimesShortestPrefix(t *testing.T) {
	lits := map[string]ParametersLiteral{"table2": Table2Literal(), "toy_dnum3": benchToyLiteral}
	for name, lit := range workloadLiterals {
		lits[name] = lit
	}
	for _, dnum := range []int{1, 2, 3} {
		lits[fmt.Sprintf("test_dnum%d", dnum)] = ParametersLiteral{LogN: 10, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: 51, Dnum: dnum, LogScale: 40, H: 64}
	}
	for name, lit := range lits {
		p := mustParams(t, lit)
		a := p.Alpha()
		margin := int(math.Ceil(math.Log2(p.Sigma*math.Sqrt(float64(p.N()))*float64(a+1)))) + 1
		prefix := func(k int) *big.Int {
			x := big.NewInt(1)
			for _, pk := range p.P[:k] {
				x.Mul(x, new(big.Int).SetUint64(pk))
			}
			return x
		}
		prev := 0
		for l := 0; l <= p.MaxLevel(); l++ {
			digit := new(big.Int)
			for lo := 0; lo <= l; lo += a {
				g := big.NewInt(1)
				for i := lo; i < lo+a && i <= l; i++ {
					g.Mul(g, new(big.Int).SetUint64(p.Q[i]))
				}
				if g.Cmp(digit) > 0 {
					digit = g
				}
			}
			need := new(big.Int).Lsh(digit, uint(margin))
			k := p.SpecialPrimes(l)
			if prefix(k).Cmp(need) < 0 && k != len(p.P) {
				t.Errorf("%s level %d: P_%d does not clear the bound", name, l, k)
			}
			if k > 1 && prefix(k-1).Cmp(need) >= 0 {
				t.Errorf("%s level %d: P_%d already clears the bound, k = %d is not the shortest", name, l, k-1, k)
			}
			if k < prev {
				t.Errorf("%s level %d: k falls from %d to %d", name, l, prev, k)
			}
			prev = k
		}
	}
}

// fullSpecialContext is a fresh context for params whose key-switch divides
// by all of P at every level (lift 1): the key-switch as it was before the
// level-aware prefix, kept as the noise oracle.
func fullSpecialContext(t testing.TB, params Parameters) *Context {
	t.Helper()
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	for l := range ctx.special {
		ctx.special[l] = newSpecialModulus(params, l, len(params.P))
	}
	return ctx
}

// TestSpecialModulusNoise runs MulRelin, MulRelinRescale and Rotate on the
// same ciphertexts through the level-aware key-switch and through the full-P
// oracle. The only new error term is D·e/P_ℓ, which the margin keeps under
// the ModDown rounding, so the slot error must stay within half a bit of the
// oracle's and the two decryptions may differ by rounding units only; where
// a level uses all of P (lift 1) they must not differ at all.
func TestSpecialModulusNoise(t *testing.T) {
	table2 := Table2Literal()
	table2.LogN = 12
	for _, c := range []struct {
		name   string
		lit    ParametersLiteral
		levels []int
	}{
		{"table2_n12", table2, []int{27, 20, 13, 1}},
		{"toy_dnum3", benchToyLiteral, []int{7, 4, 1}},
	} {
		params := mustParams(t, c.lit)
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(ctx, 7001)
		sk := kg.GenSecretKey()
		rlk := kg.GenRelinearizationKey(sk)
		rtks := kg.GenRotationKeys(sk, []int{1}, false)
		encoder := NewEncoder(ctx)
		ev := NewEvaluator(ctx, encoder, rlk, rtks)
		enc := NewEncryptorSK(ctx, sk, 7002)
		dec := NewDecryptor(ctx, sk)
		ctxF := fullSpecialContext(t, params)
		evF := NewEvaluator(ctxF, NewEncoder(ctxF), rlk, rtks)

		rng := rand.New(rand.NewSource(7003))
		n := params.Slots()
		v0, v1 := randomComplex(rng, n, 1), randomComplex(rng, n, 1)
		prod, rot := make([]complex128, n), make([]complex128, n)
		for i := range prod {
			prod[i] = v0[i] * v1[i]
			rot[i] = v0[(i+1)%n]
		}
		ops := []struct {
			name string
			run  func(*Evaluator, *Ciphertext, *Ciphertext) *Ciphertext
			want []complex128
		}{
			{"MulRelin", (*Evaluator).MulRelin, prod},
			{"MulRelinRescale", (*Evaluator).MulRelinRescale, prod},
			{"Rotate", func(e *Evaluator, a, _ *Ciphertext) *Ciphertext { return e.Rotate(a, 1) }, rot},
		}
		rq := ctx.RingQ
		bound := 2 * math.Sqrt(float64((params.Alpha()+1)*(params.H+1))/12)
		for _, lvl := range c.levels {
			pt0, _ := encoder.Encode(v0, lvl, params.Scale)
			pt1, _ := encoder.Encode(v1, lvl, params.Scale)
			ct0, _ := enc.EncryptNew(pt0)
			ct1, _ := enc.EncryptNew(pt1)
			for _, op := range ops {
				got, ref := op.run(ev, ct0, ct1), op.run(evF, ct0, ct1)
				if params.SpecialPrimes(lvl) == len(params.P) &&
					!(rq.Equal(got.C0, ref.C0, got.Level) && rq.Equal(got.C1, ref.C1, got.Level)) {
					t.Fatalf("%s level %d %s: all of P in use, yet not bit-identical to the oracle", c.name, lvl, op.name)
				}
				ptG, ptR := dec.DecryptNew(got), dec.DecryptNew(ref)
				errG := maxErr(encoder.Decode(ptG), op.want)
				errR := maxErr(encoder.Decode(ptR), op.want)

				rq.Sub(ptG.Value, ptR.Value, ptG.Value, got.Level)
				rq.INTT(ptG.Value, got.Level)
				sumSq := 0.0
				for _, d := range rq.PolyToBigCentered(ptG.Value, got.Level) {
					f, _ := new(big.Float).SetInt(d).Float64()
					sumSq += f * f
				}
				rms := math.Sqrt(sumSq / float64(rq.N))
				t.Logf("%s level %d (k=%d of %d) %s: slot error 2^%.2f, full-P oracle 2^%.2f; coefficient difference rms %.2f (bound %.2f)",
					c.name, lvl, params.SpecialPrimes(lvl), len(params.P), op.name, math.Log2(errG), math.Log2(errR), rms, bound)
				if math.Log2(errG) > math.Log2(errR)+0.5 {
					t.Errorf("%s level %d %s: slot error 2^%.2f more than half a bit above the full-P oracle's 2^%.2f",
						c.name, lvl, op.name, math.Log2(errG), math.Log2(errR))
				}
				if rms > bound {
					t.Errorf("%s level %d %s: decryptions differ by rms %.2f, above the rounding bound %.2f", c.name, lvl, op.name, rms, bound)
				}
			}
		}
	}
}

// TestSpecialPrefixHoistingBitIdentical holds the hoisting invariants at
// levels whose key-switch divides by fewer special primes than the keys
// carry: RotateHoisted is Rotate word for word, and a LinearTransform encoded
// above the ciphertext's level — its P-part diagonals hold k_{lt.Level} rows,
// of which the key-switch reads the first k_ℓ — is word for word the same
// transform encoded at that level, and within the transform budget of the
// eager evaluation.
func TestSpecialPrefixHoistingBitIdentical(t *testing.T) {
	const nDiags = 8
	rotations := allRotations(nDiags, 1<<9)
	s := newTestSetup(t, 1, rotations)
	defer s.ctx.Close()
	p := s.params
	n := p.Slots()
	rng := rand.New(rand.NewSource(7101))
	values := randomComplex(rng, n, 1)
	diags := map[int][]complex128{}
	for k := 0; k < nDiags; k++ {
		diags[k] = randomComplex(rng, n, 1)
	}
	want := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := 0; k < nDiags; k++ {
			want[j] += diags[k][j] * values[(j+k)%n]
		}
	}
	top := p.MaxLevel()
	ltTop, err := NewLinearTransform(s.encoder, diags, top, float64(p.Q[top]))
	if err != nil {
		t.Fatal(err)
	}
	rq := s.ctx.RingQ
	equal := func(a, b *Ciphertext) bool {
		return a.Level == b.Level && rq.Equal(a.C0, b.C0, a.Level) && rq.Equal(a.C1, b.C1, a.Level)
	}
	for lvl := 0; lvl < top; lvl++ {
		if k := p.SpecialPrimes(lvl); k == len(p.P) {
			t.Fatalf("level %d: k = %d, want a proper prefix", lvl, k)
		}
		pt, _ := s.encoder.Encode(values, lvl, p.Scale)
		ct, _ := s.enc.EncryptNew(pt)

		hoisted := s.eval.RotateHoisted(ct, rotations)
		for _, r := range rotations {
			if naive := s.eval.Rotate(ct, r); !equal(hoisted[r], naive) {
				t.Fatalf("level %d rot %d: hoisted rotation not bit-identical to Rotate", lvl, r)
			}
		}

		lt, err := NewLinearTransform(s.encoder, diags, lvl, float64(p.Q[top]))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []*LinearTransform{lt, ltTop} {
			for k, d := range l.diagsP {
				if got, want := len(d.Coeffs), p.SpecialPrimes(l.Level); got != want {
					t.Fatalf("transform at level %d: diagonal %d has %d P rows, want k = %d", l.Level, k, got, want)
				}
			}
		}
		fromTop := s.eval.LinearTransform(ct, ltTop)
		if !equal(s.eval.LinearTransform(ct, lt), fromTop) {
			t.Fatalf("level %d: transform encoded at level %d differs from the one encoded at %d", lvl, top, lvl)
		}
		if lvl == 0 {
			continue
		}
		errHoisted := maxErr(s.encoder.Decode(s.dec.DecryptNew(s.eval.Rescale(fromTop))), want)
		errEager := maxErr(s.encoder.Decode(s.dec.DecryptNew(s.eval.Rescale(s.eval.linearTransformEager(ct, ltTop)))), want)
		if errHoisted > 1e-3 || errHoisted > 2*errEager+1e-9 {
			t.Fatalf("level %d: hoisted transform error %g (eager %g)", lvl, errHoisted, errEager)
		}
	}
}
