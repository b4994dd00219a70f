package mod

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var testModuli = []uint64{
	(1 << 13) + 1,       // tiny Fermat-like prime, 2^13+1
	576460752303415297,  // ~2^59, ≡ 1 mod 2^15
	2305843009213554689, // ~2^61
	1152921504606830593, // ~2^60
	288230376151130113,  // ~2^58
	65537,               // F4
	7,                   // tiny prime (stress small moduli)
}

func TestAddSubNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testModuli {
		for i := 0; i < 1000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := Add(a, b, q), (a+b)%q; got != want {
				t.Fatalf("Add(%d,%d,%d)=%d want %d", a, b, q, got, want)
			}
			if got, want := Sub(a, b, q), (a+q-b)%q; got != want {
				t.Fatalf("Sub(%d,%d,%d)=%d want %d", a, b, q, got, want)
			}
			if got, want := Neg(a, q), (q-a)%q; got != want {
				t.Fatalf("Neg(%d,%d)=%d want %d", a, q, got, want)
			}
		}
	}
}

// TestAddSubNegRawWords pins the branch-free Add, Sub and Neg to their
// branching definitions on every kind of 64-bit word, reduced or not:
// internal/ring's lane kernels mirror this raw-word arithmetic, so the two
// forms must agree word for word past the functions' own contract. The
// moduli are those of ring's TestElemLanesMatchGo: NTT primes of 50, 60 and
// 61 bits at N = 2^6 and the largest such prime below 2^62.
func TestAddSubNegRawWords(t *testing.T) {
	addRef := func(a, b, q uint64) uint64 {
		s := a + b
		if s >= q {
			s -= q
		}
		return s
	}
	subRef := func(a, b, q uint64) uint64 {
		if a >= b {
			return a - b
		}
		return q - b + a
	}
	negRef := func(a, q uint64) uint64 {
		if a == 0 {
			return 0
		}
		return q - a
	}
	const logN = 6
	const twoN = 2 << logN
	var moduli []uint64
	for q := uint64(1)<<62 - twoN + 1; ; q -= twoN {
		if IsPrime(q) {
			moduli = append(moduli, q)
			break
		}
	}
	for _, b := range []int{50, 60, 61} {
		ps, err := GenerateNTTPrimes(b, logN, 1)
		if err != nil {
			t.Fatal(err)
		}
		moduli = append(moduli, ps...)
	}
	rng := rand.New(rand.NewSource(2))
	for _, q := range moduli {
		words := []uint64{0, 1, q - 1, q, q + 1, 2*q - 1, 1 << 63, ^uint64(0) - q, ^uint64(0)}
		for i := 0; i < 64; i++ {
			words = append(words, rng.Uint64(), rng.Uint64()%q)
		}
		for _, a := range words {
			if got, want := Neg(a, q), negRef(a, q); got != want {
				t.Fatalf("q=%d: Neg(%#x)=%#x want %#x", q, a, got, want)
			}
			for _, b := range words {
				if got, want := Add(a, b, q), addRef(a, b, q); got != want {
					t.Fatalf("q=%d: Add(%#x,%#x)=%#x want %#x", q, a, b, got, want)
				}
				if got, want := Sub(a, b, q), subRef(a, b, q); got != want {
					t.Fatalf("q=%d: Sub(%#x,%#x)=%#x want %#x", q, a, b, got, want)
				}
			}
		}
	}
}

func bigMulMod(a, b, q uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	x.Mul(x, y)
	x.Mod(x, new(big.Int).SetUint64(q))
	return x.Uint64()
}

func TestMulAgainstBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testModuli {
		for i := 0; i < 2000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := bigMulMod(a, b, q)
			if got := Mul(a, b, q); got != want {
				t.Fatalf("Mul(%d,%d,%d)=%d want %d", a, b, q, got, want)
			}
		}
	}
}

func TestBarrettMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testModuli {
		br := NewBarrett(q)
		for i := 0; i < 5000; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := br.Mul(a, b), Mul(a, b, q); got != want {
				t.Fatalf("q=%d: Barrett.Mul(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
		// Edge cases.
		for _, a := range []uint64{0, 1, q - 1} {
			for _, b := range []uint64{0, 1, q - 1} {
				if got, want := br.Mul(a, b), Mul(a, b, q); got != want {
					t.Fatalf("q=%d: Barrett.Mul(%d,%d)=%d want %d", q, a, b, got, want)
				}
			}
		}
	}
}

func TestBarrettMulProperty(t *testing.T) {
	q := uint64(1152921504606830593)
	br := NewBarrett(q)
	f := func(a, b uint64) bool {
		a, b = a%q, b%q
		return br.Mul(a, b) == bigMulMod(a, b, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrettReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testModuli {
		br := NewBarrett(q)
		for i := 0; i < 2000; i++ {
			a := rng.Uint64()
			if got, want := br.Reduce(a), a%q; got != want {
				t.Fatalf("q=%d: Reduce(%d)=%d want %d", q, a, got, want)
			}
		}
	}
}

func TestMulShoup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, q := range testModuli {
		for i := 0; i < 2000; i++ {
			x := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := ShoupPrecomp(w, q)
			if got, want := MulShoup(x, w, ws, q), Mul(x, w, q); got != want {
				t.Fatalf("q=%d: MulShoup(%d,%d)=%d want %d", q, x, w, got, want)
			}
		}
	}
}

// TestMulShoupLazyBounds drives the Shoup product at the edges of its input
// range — x up to 2^64−1, where the NTT butterflies feed it lazy sums — on
// moduli up to MaxModulusBits wide: the result must be < 2q and congruent
// to x·w, and MulShoup must return its canonical residue.
func TestMulShoupLazyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, q := range montgomeryTestPrimes(t) {
		ws := []uint64{0, 1, q - 1}
		for i := 0; i < 16; i++ {
			ws = append(ws, rng.Uint64()%q)
		}
		for _, w := range ws {
			wShoup := ShoupPrecomp(w, q)
			for _, x := range []uint64{0, q - 1, 4*q - 1, ^uint64(0), rng.Uint64()} {
				want := Mul(x, w, q)
				lazy := MulShoupLazy(x, w, wShoup, q)
				if lazy >= 2*q || lazy%q != want {
					t.Fatalf("q=%d: MulShoupLazy(%d,%d)=%d, want a value < 2q congruent to %d", q, x, w, lazy, want)
				}
				if got := MulShoup(x, w, wShoup, q); got != want {
					t.Fatalf("q=%d: MulShoup(%d,%d)=%d want %d", q, x, w, got, want)
				}
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	for _, q := range testModuli {
		if !IsPrime(q) {
			continue
		}
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 200; i++ {
			a := rng.Uint64()%(q-1) + 1
			inv := Inv(a, q)
			if Mul(a, inv, q) != 1 {
				t.Fatalf("q=%d: a*Inv(a) != 1 for a=%d", q, a)
			}
		}
		if got := Pow(3, 0, q); got != 1 {
			t.Fatalf("Pow(3,0,%d)=%d want 1", q, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0,q) should panic")
		}
	}()
	Inv(0, 65537)
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{}
	sieve := make([]bool, 10000)
	for i := 2; i < len(sieve); i++ {
		if !sieve[i] {
			primes[uint64(i)] = true
			for j := i * i; j < len(sieve); j += i {
				sieve[j] = true
			}
		}
	}
	for n := uint64(0); n < 10000; n++ {
		if IsPrime(n) != primes[n] {
			t.Fatalf("IsPrime(%d)=%v want %v", n, IsPrime(n), primes[n])
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	cases := map[uint64]bool{
		18446744073709551557: true,  // largest 64-bit prime
		18446744073709551556: false, // even
		2305843009213693951:  true,  // Mersenne 2^61-1
		2305843009213693953:  false,
		1152921504606846883:  true,
	}
	for n, want := range cases {
		if got := IsPrime(n); got != want {
			t.Fatalf("IsPrime(%d)=%v want %v", n, got, want)
		}
	}
}

func TestGenerateNTTPrimes(t *testing.T) {
	for _, logN := range []int{10, 12, 14} {
		primes, err := GenerateNTTPrimes(45, logN, 10)
		if err != nil {
			t.Fatal(err)
		}
		twoN := uint64(1) << (logN + 1)
		seen := map[uint64]bool{}
		for _, q := range primes {
			if !IsPrime(q) {
				t.Fatalf("generated non-prime %d", q)
			}
			if (q-1)%twoN != 0 {
				t.Fatalf("prime %d not ≡ 1 mod %d", q, twoN)
			}
			if seen[q] {
				t.Fatalf("duplicate prime %d", q)
			}
			seen[q] = true
			// Must stay close to 2^45 (within 1% for these sizes).
			center := float64(uint64(1) << 45)
			if r := float64(q)/center - 1; r > 0.01 || r < -0.01 {
				t.Fatalf("prime %d too far from 2^45 (ratio %f)", q, r+1)
			}
		}
	}
}

func TestGenerateNTTPrimesErrors(t *testing.T) {
	if _, err := GenerateNTTPrimes(63, 10, 1); err == nil {
		t.Fatal("expected error for logQ=63")
	}
	if _, err := GenerateNTTPrimes(5, 10, 1); err == nil {
		t.Fatal("expected error for logQ < logN+2")
	}
}

func TestPrimitiveRootOfUnity(t *testing.T) {
	for _, logN := range []int{4, 10, 12} {
		primes, err := GenerateNTTPrimes(40, logN, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(1) << logN
		for _, q := range primes {
			psi, err := PrimitiveRootOfUnity(q, logN)
			if err != nil {
				t.Fatal(err)
			}
			if Pow(psi, n, q) != q-1 {
				t.Fatalf("psi^N != -1 for q=%d", q)
			}
			if Pow(psi, 2*n, q) != 1 {
				t.Fatalf("psi^2N != 1 for q=%d", q)
			}
		}
	}
	if _, err := PrimitiveRootOfUnity(65537, 20); err == nil {
		t.Fatal("expected error when 2N does not divide q-1")
	}
}

func BenchmarkBarrettMul(b *testing.B) {
	q := uint64(1152921504606830593)
	br := NewBarrett(q)
	x, y := uint64(123456789123456), uint64(987654321987654)
	for i := 0; i < b.N; i++ {
		x = br.Mul(x, y)
	}
	_ = x
}

func BenchmarkMulShoup(b *testing.B) {
	q := uint64(1152921504606830593)
	w := uint64(987654321987654)
	ws := ShoupPrecomp(w, q)
	x := uint64(123456789123456)
	for i := 0; i < b.N; i++ {
		x = MulShoup(x, w, ws, q)
	}
	_ = x
}

func BenchmarkMulDiv64(b *testing.B) {
	q := uint64(1152921504606830593)
	x, y := uint64(123456789123456), uint64(987654321987654)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y, q)
	}
	_ = x
}
