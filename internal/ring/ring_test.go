package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"bts/internal/mod"
)

func testRing(t testing.TB, logN, nPrimes int) *Ring {
	t.Helper()
	primes, err := mod.GenerateNTTPrimes(45, logN, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bconvBases returns disjoint source and target bases for BasisExtender
// tests: nf primes of bitsFrom bits and nt primes of bitsTo bits (the widths
// must differ), each NTT-friendly at logN.
func bconvBases(t testing.TB, logN, bitsFrom, nf, bitsTo, nt int) (from, to []*Modulus) {
	t.Helper()
	var bases [2][]*Modulus
	for i, s := range [2]struct{ bits, count int }{{bitsFrom, nf}, {bitsTo, nt}} {
		primes, err := mod.GenerateNTTPrimes(s.bits, logN, s.count)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = r.Moduli
	}
	return bases[0], bases[1]
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(1, []uint64{97}); err == nil {
		t.Fatal("expected error for logN=1")
	}
	if _, err := NewRing(4, nil); err == nil {
		t.Fatal("expected error for empty chain")
	}
	if _, err := NewRing(4, []uint64{97, 97}); err == nil {
		t.Fatal("expected error for duplicate modulus")
	}
	if _, err := NewRing(4, []uint64{96}); err == nil {
		t.Fatal("expected error for composite modulus")
	}
	// 65537 ≡ 1 mod 32 holds; but a prime not ≡ 1 mod 2N must fail.
	if _, err := NewRing(4, []uint64{91393*0 + 23}); err == nil {
		t.Fatal("expected error for prime without 2N-th root of unity")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	for _, logN := range []int{4, 8, 11} {
		r := testRing(t, logN, 3)
		rng := rand.New(rand.NewSource(7))
		p := r.NewPolyLevel(2)
		r.SampleUniform(rng, p, 2)
		orig := r.CopyNew(p, 2)
		r.NTT(p, 2)
		if r.Equal(p, orig, 2) {
			t.Fatal("NTT left polynomial unchanged (degenerate transform)")
		}
		r.INTT(p, 2)
		if !r.Equal(p, orig, 2) {
			t.Fatalf("logN=%d: INTT(NTT(p)) != p", logN)
		}
	}
}

func TestNTTLinearityProperty(t *testing.T) {
	r := testRing(t, 8, 1)
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		localRng := rand.New(rand.NewSource(seed ^ rng.Int63()))
		a := r.NewPolyLevel(0)
		b := r.NewPolyLevel(0)
		r.SampleUniform(localRng, a, 0)
		r.SampleUniform(localRng, b, 0)
		// NTT(a+b) == NTT(a)+NTT(b)
		sum := r.NewPolyLevel(0)
		r.Add(a, b, sum, 0)
		r.NTT(sum, 0)
		r.NTT(a, 0)
		r.NTT(b, 0)
		sum2 := r.NewPolyLevel(0)
		r.Add(a, b, sum2, 0)
		return r.Equal(sum, sum2, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// schoolbookNegacyclic computes a*b mod (X^N+1, q) in O(N^2).
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := mod.Mul(a[i], b[j], q)
			k := i + j
			if k < n {
				out[k] = mod.Add(out[k], p, q)
			} else {
				out[k-n] = mod.Sub(out[k-n], p, q)
			}
		}
	}
	return out
}

func TestNTTMultiplicationMatchesSchoolbook(t *testing.T) {
	r := testRing(t, 6, 2)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		a := r.NewPolyLevel(1)
		b := r.NewPolyLevel(1)
		r.SampleUniform(rng, a, 1)
		r.SampleUniform(rng, b, 1)
		// The schoolbook reference multiplies true residues, so compare in
		// the true domain: strip the Montgomery form off the inputs for the
		// oracle and off the product for the check.
		aT := r.CopyNew(a, 1)
		bT := r.CopyNew(b, 1)
		r.IForm(aT, aT, 1)
		r.IForm(bT, bT, 1)
		var want [][]uint64
		for i := 0; i <= 1; i++ {
			want = append(want, schoolbookNegacyclic(aT.Coeffs[i], bT.Coeffs[i], r.Moduli[i].Q))
		}
		r.NTT(a, 1)
		r.NTT(b, 1)
		c := r.NewPolyLevel(1)
		r.MulCoeffs(a, b, c, 1)
		r.INTT(c, 1)
		r.IForm(c, c, 1)
		for i := 0; i <= 1; i++ {
			for j := 0; j < r.N; j++ {
				if c.Coeffs[i][j] != want[i][j] {
					t.Fatalf("prime %d coeff %d: got %d want %d", i, j, c.Coeffs[i][j], want[i][j])
				}
			}
		}
	}
}

func TestNTTEvaluationOrder(t *testing.T) {
	// Verifies the invariant evalOrderExponent documents: after NTT, row
	// index i holds A(ψ^(2·brv(i)+1)). The automorphism permutation tables
	// depend on this.
	r := testRing(t, 5, 1)
	m := r.Moduli[0]
	rng := rand.New(rand.NewSource(10))
	p := r.NewPolyLevel(0)
	r.SampleUniform(rng, p, 0)
	coeffs := append([]uint64(nil), p.Coeffs[0]...)
	r.NTT(p, 0)
	for i := 0; i < r.N; i++ {
		e := uint64(r.evalOrderExponent(i))
		x := mod.Pow(m.Psi, e, m.Q)
		// Horner evaluation of the original polynomial at ψ^e.
		acc := uint64(0)
		for j := r.N - 1; j >= 0; j-- {
			acc = mod.Add(mod.Mul(acc, x, m.Q), coeffs[j], m.Q)
		}
		if p.Coeffs[0][i] != acc {
			t.Fatalf("NTT output order mismatch at index %d: got %d want %d", i, p.Coeffs[0][i], acc)
		}
	}
}

func TestAutomorphismNTTMatchesCoeff(t *testing.T) {
	r := testRing(t, 7, 2)
	rng := rand.New(rand.NewSource(11))
	for _, g := range []uint64{5, 25, r.GaloisElement(3), r.GaloisElement(-1), r.GaloisConjugate()} {
		p := r.NewPolyLevel(1)
		r.SampleUniform(rng, p, 1)

		// Path 1: coefficient-domain automorphism, then NTT.
		want := r.NewPolyLevel(1)
		r.AutomorphismCoeff(p, g, want, 1)
		r.NTT(want, 1)

		// Path 2: NTT, then NTT-domain permutation.
		got := r.NewPolyLevel(1)
		pn := r.CopyNew(p, 1)
		r.NTT(pn, 1)
		r.AutomorphismNTT(pn, g, got, 1)

		if !r.Equal(got, want, 1) {
			t.Fatalf("automorphism mismatch for galois element %d", g)
		}
	}
}

func TestAutomorphismComposition(t *testing.T) {
	// σ_g1 ∘ σ_g2 = σ_{g1·g2 mod 2N} in the coefficient domain.
	r := testRing(t, 6, 1)
	rng := rand.New(rand.NewSource(12))
	p := r.NewPolyLevel(0)
	r.SampleUniform(rng, p, 0)
	g1, g2 := r.GaloisElement(2), r.GaloisElement(5)
	g12 := (g1 * g2) & uint64(2*r.N-1)

	t1 := r.NewPolyLevel(0)
	t2 := r.NewPolyLevel(0)
	r.AutomorphismCoeff(p, g2, t1, 0)
	r.AutomorphismCoeff(t1, g1, t2, 0)

	want := r.NewPolyLevel(0)
	r.AutomorphismCoeff(p, g12, want, 0)
	if !r.Equal(t2, want, 0) {
		t.Fatal("automorphism composition failed")
	}
}

func TestGaloisElement(t *testing.T) {
	r := testRing(t, 6, 1)
	if g := r.GaloisElement(0); g != 1 {
		t.Fatalf("GaloisElement(0)=%d want 1", g)
	}
	if g := r.GaloisElement(1); g != 5 {
		t.Fatalf("GaloisElement(1)=%d want 5", g)
	}
	// Rotation by r then by -r must compose to identity.
	g1, g2 := r.GaloisElement(7), r.GaloisElement(-7)
	if (g1*g2)&(uint64(2*r.N)-1) != 1 {
		t.Fatal("GaloisElement(7)*GaloisElement(-7) != 1 mod 2N")
	}
}

func TestPolyBigRoundTrip(t *testing.T) {
	r := testRing(t, 5, 3)
	rng := rand.New(rand.NewSource(13))
	coeffs := make([]*big.Int, r.N)
	q := r.ModulusProduct(2)
	half := new(big.Int).Rsh(q, 1)
	for j := range coeffs {
		v := new(big.Int).Rand(rng, q)
		v.Sub(v, half)
		coeffs[j] = v
	}
	p := r.NewPolyLevel(2)
	r.SetBigCoeffs(p, coeffs, 2)
	back := r.PolyToBigCentered(p, 2)
	for j := range coeffs {
		if coeffs[j].Cmp(back[j]) != 0 {
			t.Fatalf("coeff %d: got %v want %v", j, back[j], coeffs[j])
		}
	}
}

func TestSetInt64Coeffs(t *testing.T) {
	r := testRing(t, 4, 2)
	coeffs := make([]int64, r.N)
	coeffs[0] = -3
	coeffs[1] = 7
	coeffs[2] = -1 << 40
	p := r.NewPolyLevel(1)
	r.SetInt64Coeffs(p, coeffs, 1)
	back := r.PolyToBigCentered(p, 1)
	for j, c := range coeffs {
		if back[j].Int64() != c {
			t.Fatalf("coeff %d: got %v want %d", j, back[j], c)
		}
	}
}

func TestBasisExtenderCongruenceAndOverflow(t *testing.T) {
	// The fast BConv of Eq. 9 with centered stage-2 representatives returns
	// a value congruent to x mod Q with magnitude below nf·Q/2 (each of the
	// nf terms is at most q_j/2·(Q/q_j) = Q/2 in magnitude); key-switching
	// is designed to absorb the α·Q overflow (Section 4.1). The target base
	// must dominate the source base for the result to be representable, as
	// in ModUp (P ≥ Q_j).
	rQ := testRing(t, 5, 2) // Q ≈ 2^90
	primesP, err := mod.GenerateNTTPrimes(55, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	rP, err := NewRing(5, primesP) // P ≈ 2^220 ≫ nf·Q
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBasisExtender(rQ.Moduli, rP.Moduli)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	in := rQ.NewPolyLevel(1)
	rQ.SampleUniform(rng, in, 1)
	q := rQ.ModulusProduct(1)
	vals := rQ.PolyToBigCentered(in, 1)
	out := rP.NewPolyLevel(3)
	be.Convert(in.Coeffs, out.Coeffs)
	back := rP.PolyToBigCentered(out, 3)
	nf := int64(len(rQ.Moduli))
	diff := new(big.Int)
	for j := range vals {
		diff.Sub(back[j], vals[j])
		diff.Mod(diff, q)
		if diff.Sign() != 0 {
			t.Fatalf("coeff %d: BConv result not congruent mod Q", j)
		}
		// |back| ≤ nf·Q/2 with the centered representatives.
		bound := new(big.Int).Mul(q, big.NewInt(nf))
		bound.Rsh(bound, 1)
		if new(big.Int).Abs(back[j]).Cmp(bound) > 0 {
			t.Fatalf("coeff %d: BConv overflow too large: %v", j, back[j])
		}
	}
}

// TestMulGatherAndAddLazyMatchesPermuteThenMAC pins a chain of lazy 128-bit
// gather-MACs reduced once to the same chain of reduced MACs on the
// materialized automorphism (AutomorphismNTT + MulCoeffsAndAdd): the
// congruence class of the sum does not depend on when reductions happen, and
// both end on the canonical representative. g = 1, the identity table, is
// the plain lazy MAC. It runs at two worker counts, since the gather reads
// non-contiguous source indices across coefficient-block boundaries.
func TestMulGatherAndAddLazyMatchesPermuteThenMAC(t *testing.T) {
	const terms = 9
	for _, workers := range []int{0, 3} {
		r := testRing(t, 6, 4)
		e := NewEngine(workers)
		defer e.Close()
		r.SetEngine(e)
		lvl := r.MaxLevel()
		rng := rand.New(rand.NewSource(39))
		as := make([]*Poly, terms)
		bs := make([]*Poly, terms)
		for i := range as {
			as[i] = r.NewPolyLevel(lvl)
			bs[i] = r.NewPolyLevel(lvl)
			r.SampleUniform(rng, as[i], lvl)
			r.SampleUniform(rng, bs[i], lvl)
		}
		perm := r.NewPolyLevel(lvl)
		for _, g := range []uint64{1, r.GaloisElement(3), r.GaloisElement(-1), r.GaloisConjugate()} {
			table := r.AutoIndexNTT(g)
			want := r.NewPolyLevel(lvl)
			acc := r.GetAcc(lvl)
			for i := range as {
				r.AutomorphismNTT(as[i], g, perm, lvl)
				r.MulCoeffsAndAdd(perm, bs[i], want, lvl)
				r.MulGatherAndAddLazy(as[i], table, bs[i], acc, lvl)
			}
			got := r.NewPolyLevel(lvl)
			r.ReduceAcc(acc, got, lvl)
			r.PutAcc(acc)
			if !r.Equal(got, want, lvl) {
				t.Fatalf("workers=%d g=%d: lazy gather-MAC chain disagrees with permute-then-MAC", workers, g)
			}
		}
	}
}

func TestBasisExtenderNegationEquivariance(t *testing.T) {
	// The hoisted key-switch permutes decomposed slices with the signed
	// automorphism permutation instead of re-decomposing the permuted
	// ciphertext; the two orders agree bit for bit only because the centered
	// BConv satisfies Convert(-x) = -Convert(x) residue for residue. The
	// planted digits sit on the centering boundaries, where negation swaps
	// (q-1)/2 with (q+1)/2 and must keep f(0) = 0.
	negRows := func(ms []*Modulus, rows [][]uint64) {
		for j, row := range rows {
			for k, v := range row {
				row[k] = mod.Neg(v, ms[j].Q)
			}
		}
	}
	for _, s := range bconvShapes {
		t.Run(s.name, func(t *testing.T) {
			from, to := bconvBases(t, s.logN, s.bitsFrom, s.nf, s.bitsTo, s.nt)
			for _, path := range bconvPaths {
				t.Run(path, func(t *testing.T) {
					be := extenderOn(t, from, to, path)
					for _, input := range bconvInputs(37, from, to, s.n) {
						in := mformRows(from, input.x)
						out := make([][]uint64, s.nt)
						outNeg := make([][]uint64, s.nt)
						for i := range out {
							out[i] = make([]uint64, s.n)
							outNeg[i] = make([]uint64, s.n)
						}
						be.Convert(in, out)
						negRows(from, in)
						be.Convert(in, outNeg)
						negRows(to, outNeg)
						for i := range out {
							for k := range out[i] {
								if out[i][k] != outNeg[i][k] {
									t.Fatalf("%s: target limb %d coeff %d: Convert(-x) != -Convert(x): centered BConv is not negation-equivariant", input.name, i, k)
								}
							}
						}
					}
					t.Logf("%s path: negation-equivariant", path)
				})
			}
		})
	}
}

// TestKernelPaths logs which CPUID-selected kernels this CPU runs — the
// NTT, the element-wise rows, BConv and the seeded-key keystream — so a CI
// log says when an assembly kernel went unexercised.
func TestKernelPaths(t *testing.T) {
	ntt, elem, bconv, keystream := "go (no AVX-512 F/DQ)", "go (no AVX-512 F/DQ)", "go (no AVX-512 IFMA)", "crypto/aes (no VAES)"
	if useLanes {
		ntt = fmt.Sprintf("lanes (ntt_amd64.s, N >= 2^%d)", nttLanesMinLogN)
		elem = "lanes (elem_amd64.s)"
	}
	if useIFMA {
		bconv = "ifma (bconvDigits, bconvLanes)"
	}
	if useVAES {
		keystream = "vaes (keystreamVAES)"
	}
	t.Logf("ntt: %s", ntt)
	t.Logf("elem: %s", elem)
	t.Logf("bconv: %s", bconv)
	t.Logf("keystream: %s", keystream)
}

// forceGo runs the rest of t with every CPUID-selected kernel on its Go
// path — the NTT row kernels and the element-wise rows, BConv (for
// extenders built afterwards) and the keystream (for sources made
// afterwards) — and restores the probe's flags when t ends. Tests that call
// it must not run in parallel.
func forceGo(t testing.TB) {
	lanes, ifma, vaes := useLanes, useIFMA, useVAES
	useLanes, useIFMA, useVAES = false, false, false
	t.Cleanup(func() { useLanes, useIFMA, useVAES = lanes, ifma, vaes })
}

// onPaths runs f twice, as the subtests "lanes" (the kernels CPUID selects)
// and "go" (forceGo). The lanes subtest skips, saying why, on a CPU without
// AVX-512 F/DQ, so a green run there does not pass for its coverage.
func onPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("lanes", func(t *testing.T) {
		if !useLanes {
			t.Skip("no AVX-512 F/DQ on this CPU: the lane kernels not checked")
		}
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		forceGo(t)
		f(t)
	})
}

func TestBasisExtenderErrors(t *testing.T) {
	r := testRing(t, 4, 2)
	if _, err := NewBasisExtender(nil, r.Moduli); err == nil {
		t.Fatal("expected error for empty source basis")
	}
	if _, err := NewBasisExtender(r.Moduli, r.Moduli); err == nil {
		t.Fatal("expected error for overlapping bases")
	}
}

func TestSamplers(t *testing.T) {
	r := testRing(t, 8, 2)
	rng := rand.New(rand.NewSource(17))

	s := r.NewPolyLevel(1)
	r.SampleTernarySparse(rng, s, 32, 1)
	back := r.PolyToBigCentered(s, 1)
	nonzero := 0
	for _, v := range back {
		switch v.Int64() {
		case 0:
		case 1, -1:
			nonzero++
		default:
			t.Fatalf("ternary sample produced %v", v)
		}
	}
	if nonzero != 32 {
		t.Fatalf("ternary Hamming weight = %d, want 32", nonzero)
	}

	e := r.NewPolyLevel(1)
	r.SampleGaussian(rng, e, 3.2, 1)
	eb := r.PolyToBigCentered(e, 1)
	for _, v := range eb {
		if v.CmpAbs(big.NewInt(20)) > 0 {
			t.Fatalf("gaussian sample out of 6σ bound: %v", v)
		}
	}

	u := r.NewPolyLevel(1)
	r.SampleUniform(rng, u, 1)
	// crude uniformity check: mean should be near q/2
	var sum float64
	for _, v := range u.Coeffs[0] {
		sum += float64(v)
	}
	mean := sum / float64(r.N)
	q := float64(r.Moduli[0].Q)
	if mean < 0.4*q || mean > 0.6*q {
		t.Fatalf("uniform sample mean %f suspicious (q=%f)", mean, q)
	}
}

func TestElementWiseOpsProperty(t *testing.T) {
	r := testRing(t, 6, 2)
	rng := rand.New(rand.NewSource(18))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		a, b := r.NewPolyLevel(1), r.NewPolyLevel(1)
		r.SampleUniform(lr, a, 1)
		r.SampleUniform(lr, b, 1)
		_ = rng
		// (a+b)-b == a
		s, d := r.NewPolyLevel(1), r.NewPolyLevel(1)
		r.Add(a, b, s, 1)
		r.Sub(s, b, d, 1)
		if !r.Equal(d, a, 1) {
			return false
		}
		// a + (-a) == 0
		neg, z := r.NewPolyLevel(1), r.NewPolyLevel(1)
		r.Neg(a, neg, 1)
		r.Add(a, neg, z, 1)
		zero := r.NewPolyLevel(1)
		return r.Equal(z, zero, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMulScalar(t *testing.T) {
	r := testRing(t, 4, 2)
	rng := rand.New(rand.NewSource(19))
	a := r.NewPolyLevel(1)
	r.SampleUniform(rng, a, 1)
	out := r.NewPolyLevel(1)
	r.MulScalar(a, 3, out, 1)
	// 3a == a+a+a
	want := r.NewPolyLevel(1)
	r.Add(a, a, want, 1)
	r.Add(want, a, want, 1)
	if !r.Equal(out, want, 1) {
		t.Fatal("MulScalar(3) != a+a+a")
	}
	r.MulScalarInt64(a, -1, out, 1)
	r.Neg(a, want, 1)
	if !r.Equal(out, want, 1) {
		t.Fatal("MulScalarInt64(-1) != Neg")
	}
}

// TestMulLimbScalarsRange checks MulLimbScalars against per-word modular
// products on an inner row range, and that it leaves the other rows alone.
func TestMulLimbScalarsRange(t *testing.T) {
	r := testRing(t, 6, 4)
	rng := rand.New(rand.NewSource(21))
	a := r.NewPolyLevel(3)
	r.SampleUniform(rng, a, 3)
	w, ws := make([]uint64, 4), make([]uint64, 4)
	for i, m := range r.Moduli {
		w[i] = uniformUint64(rng, m.Q)
		ws[i] = mod.ShoupPrecomp(w[i], m.Q)
	}
	out := r.NewPolyLevel(3)
	r.MulLimbScalars(a, w, ws, out, 1, 2)
	for i, m := range r.Moduli {
		for j, x := range a.Coeffs[i] {
			want := uint64(0)
			if i == 1 || i == 2 {
				want = mod.Mul(x, w[i], m.Q)
			}
			if out.Coeffs[i][j] != want {
				t.Fatalf("row %d coeff %d: got %d, want %d", i, j, out.Coeffs[i][j], want)
			}
		}
	}
}

func TestMulCoeffsAndAdd(t *testing.T) {
	r := testRing(t, 4, 1)
	rng := rand.New(rand.NewSource(20))
	a, b := r.NewPolyLevel(0), r.NewPolyLevel(0)
	r.SampleUniform(rng, a, 0)
	r.SampleUniform(rng, b, 0)
	acc := r.NewPolyLevel(0)
	r.MulCoeffs(a, b, acc, 0)
	want := r.CopyNew(acc, 0)
	r.Add(want, want, want, 0) // 2ab
	r.MulCoeffsAndAdd(a, b, acc, 0)
	if !r.Equal(acc, want, 0) {
		t.Fatal("MulCoeffsAndAdd mismatch")
	}
}

func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{12, 13, 14} {
		r := testRing(b, logN, 1)
		rng := rand.New(rand.NewSource(21))
		p := r.NewPolyLevel(0)
		r.SampleUniform(rng, p, 0)
		b.Run("logN="+itoa(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NTT(p, 0)
			}
		})
	}
}

// BenchmarkBConv times Convert at the three ModUp shapes the bench/ workloads
// run (source limbs → target limbs at the workload's ring degree) on both
// paths — "go" forces the Go convertTile, "ifma" is the AVX-512 kernels the
// CPU selects where it has them — and reports ns per output
// coefficient, the same quantity as the benchmark's
// ring.bconv_ns_per_out_coeff, so the micro and the traced numbers compare
// directly. Worker count follows -cpu (the shared DefaultEngine).
func BenchmarkBConv(b *testing.B) {
	for _, s := range []struct{ nf, nt, logN, bitsFrom, bitsTo int }{
		{28, 28, 12, 60, 61}, // boot_ins1_n12: dnum=1, the whole chain → P
		{3, 12, 14, 45, 55},  // nnlayer_dnum4_n14
		{3, 9, 17, 50, 60},   // prim_dnum3_n17: rows leave the cache
	} {
		from, to := bconvBases(b, s.logN, s.bitsFrom, s.nf, s.bitsTo, s.nt)
		n := 1 << s.logN
		rng := rand.New(rand.NewSource(22))
		in := make([][]uint64, s.nf)
		for j := range in {
			in[j] = make([]uint64, n)
			for k := range in[j] {
				in[j][k] = uniformUint64(rng, from[j].Q)
			}
		}
		out := make([][]uint64, s.nt)
		for i := range out {
			out[i] = make([]uint64, n)
		}
		for _, path := range bconvPaths {
			b.Run(fmt.Sprintf("%dto%d/logN=%d/%s", s.nf, s.nt, s.logN, path), func(b *testing.B) {
				be := extenderOn(b, from, to, path)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					be.Convert(in, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.nt*n), "ns/out-coeff")
			})
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
