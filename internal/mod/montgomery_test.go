package mod

import (
	"math/big"
	"math/rand"
	"testing"
)

// montgomeryTestPrimes returns NTT-friendly primes spanning the supported
// width range plus small odd primes and the largest prime below 2^62, so the
// REDC bounds are exercised at both extremes of the headroom budget.
func montgomeryTestPrimes(t *testing.T) []uint64 {
	t.Helper()
	qs := []uint64{3, 5, 17, 97, 7681, 65537}
	for _, logQ := range []int{20, 30, 40, 45, 50, 55, 60, 61} {
		ps, err := GenerateNTTPrimes(logQ, 4, 2)
		if err != nil {
			t.Fatalf("GenerateNTTPrimes(%d, 4, 2): %v", logQ, err)
		}
		qs = append(qs, ps...)
	}
	// Largest supported modulus: scan down from 2^62-1 for a prime.
	for q := uint64(1<<MaxModulusBits) - 1; ; q -= 2 {
		if IsPrime(q) {
			qs = append(qs, q)
			break
		}
	}
	return qs
}

func TestMontgomeryConstants(t *testing.T) {
	r := new(big.Int).Lsh(big.NewInt(1), 64)
	r2exp := new(big.Int).Lsh(big.NewInt(1), 128)
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		// QInv is -q^-1 mod 2^64: q * -QInv must be ≡ 1.
		if q*(-mr.QInv) != 1 {
			t.Errorf("q=%d: QInv is not -q^-1 mod 2^64", q)
		}
		want := new(big.Int).Mod(r2exp, new(big.Int).SetUint64(q)).Uint64()
		if mr.R2 != want {
			t.Errorf("q=%d: R2 = %d, want 2^128 mod q = %d", q, mr.R2, want)
		}
		_ = r
	}
}

func TestMFormIFormRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		qb := new(big.Int).SetUint64(q)
		for i := 0; i < 200; i++ {
			x := rng.Uint64() % q
			m := mr.MForm(x)
			if m >= q {
				t.Fatalf("q=%d: MForm(%d) = %d not canonical", q, x, m)
			}
			want := new(big.Int).Lsh(new(big.Int).SetUint64(x), 64)
			if got := want.Mod(want, qb).Uint64(); m != got {
				t.Fatalf("q=%d: MForm(%d) = %d, want x·R mod q = %d", q, x, m, got)
			}
			if back := mr.IForm(m); back != x {
				t.Fatalf("q=%d: IForm(MForm(%d)) = %d", q, x, back)
			}
		}
	}
}

func TestREDCMatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rInv := new(big.Int)
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		qb := new(big.Int).SetUint64(q)
		rInv.ModInverse(new(big.Int).Lsh(big.NewInt(1), 64), qb)
		for i := 0; i < 200; i++ {
			hi := rng.Uint64() % q // validity bound: hi < q
			lo := rng.Uint64()
			tVal := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			tVal.Add(tVal, new(big.Int).SetUint64(lo))
			tVal.Mul(tVal, rInv)
			want := tVal.Mod(tVal, qb).Uint64()
			if got := mr.REDC(hi, lo); got != want {
				t.Fatalf("q=%d: REDC(%d,%d) = %d, want %d", q, hi, lo, got, want)
			}
			lazy := mr.REDCLazy(hi, lo)
			if lazy >= 2*q {
				t.Fatalf("q=%d: REDCLazy(%d,%d) = %d exceeds 2q", q, hi, lo, lazy)
			}
			if lazy%q != want {
				t.Fatalf("q=%d: REDCLazy(%d,%d) = %d not congruent to %d", q, hi, lo, lazy, want)
			}
		}
	}
}

// TestReduce128MatchesBigInt pins Montgomery.Reduce128 to (hi·2^64+lo)·R^-1
// mod q over arbitrary 128-bit inputs, with the edges of the high-word fold:
// hi = 2^64−1 (the largest quotient), hi = q−1 and q (either side of the
// REDC bound), and lo = 0.
func TestReduce128MatchesBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		qb := new(big.Int).SetUint64(q)
		rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64), qb)
		his := []uint64{0, 1, q - 1, q, 2*q - 1, ^uint64(0), ^uint64(0) - 1}
		los := []uint64{0, 1, q - 1, ^uint64(0)}
		for i := 0; i < 200; i++ {
			his = append(his, rng.Uint64())
			los = append(los, rng.Uint64())
		}
		for _, hi := range his {
			for _, lo := range los[:8] {
				check128(t, mr, qb, rInv, hi, lo)
			}
		}
		for k := range his {
			check128(t, mr, qb, rInv, his[k], los[k%len(los)])
		}
	}
}

func check128(t *testing.T, mr Montgomery, qb, rInv *big.Int, hi, lo uint64) {
	t.Helper()
	v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	v.Add(v, new(big.Int).SetUint64(lo))
	v.Mul(v, rInv)
	want := v.Mod(v, qb).Uint64()
	if got := mr.Reduce128(hi, lo); got != want {
		t.Fatalf("q=%d: Reduce128(%d, %d) = %d, want %d", mr.Q, hi, lo, got, want)
	}
}

// TestMulMatchesBarrett pins the M-form product to the Barrett ground truth:
// IForm(Mul(MForm(a), MForm(b))) must equal Barrett.Mul(a, b) exactly.
func TestMulMatchesBarrett(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		br := NewBarrett(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			got := mr.IForm(mr.Mul(mr.MForm(a), mr.MForm(b)))
			if want := br.Mul(a, b); got != want {
				t.Fatalf("q=%d: M-form product of (%d,%d) = %d, Barrett = %d", q, a, b, got, want)
			}
			// Mul's documented range admits an unreduced a < 4q (the lazy
			// butterflies' window).
			if lift := a + 3*q; mr.Mul(lift, b) != mr.Mul(a, b) {
				t.Fatalf("q=%d: Mul(%d,%d) differs from the reduced-operand product", q, lift, b)
			}
		}
	}
}

func TestNewMontgomeryPanics(t *testing.T) {
	for _, q := range []uint64{0, 2, 1 << 40, uint64(1) << 63, (uint64(1) << 62) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMontgomery(%d) did not panic", q)
				}
			}()
			NewMontgomery(q)
		}()
	}
}

func BenchmarkMontgomeryMul(b *testing.B) {
	q := uint64(1152921504606830593)
	mr := NewMontgomery(q)
	x, y := uint64(123456789123456), uint64(987654321987654)
	for i := 0; i < b.N; i++ {
		x = mr.Mul(x, y)
	}
	_ = x
}
