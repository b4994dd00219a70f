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

// TestMulLazyBounds drives MulLazy across its full documented validity range
// — a < 4q, b < q, as the lazy NTT butterflies do — checking the < 2q output
// bound and congruence with the canonical product.
func TestMulLazyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, q := range montgomeryTestPrimes(t) {
		mr := NewMontgomery(q)
		fourQ := 4 * q // q < 2^62, so no overflow
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % fourQ
			b := rng.Uint64() % q
			// Bias some iterations to the extremes of the bound.
			if i%10 == 0 {
				a = fourQ - 1
			}
			if i%10 == 1 {
				b = q - 1
				a = fourQ - 1
			}
			lazy := mr.MulLazy(a, b)
			if lazy >= 2*q {
				t.Fatalf("q=%d: MulLazy(%d,%d) = %d exceeds 2q", q, a, b, lazy)
			}
			want := mr.Mul(a%q, b)
			wantLift := mr.Mul(a, b)
			if wantLift != want {
				t.Fatalf("q=%d: Mul(%d,%d) = %d differs from reduced-operand product %d", q, a, b, wantLift, want)
			}
			if lazy%q != want {
				t.Fatalf("q=%d: MulLazy(%d,%d) = %d not congruent to Mul = %d", q, a, b, lazy, want)
			}
		}
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

func BenchmarkMontgomeryMulLazy(b *testing.B) {
	q := uint64(1152921504606830593)
	mr := NewMontgomery(q)
	x, y := uint64(123456789123456), uint64(987654321987654)
	for i := 0; i < b.N; i++ {
		// Feedback stays valid: the result is < 2q and MulLazy accepts a < 4q.
		x = mr.MulLazy(x, y)
	}
	_ = x
}
