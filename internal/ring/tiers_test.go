package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// This file pins the three tiers of the kernels that have an IFMA tier —
// the NTT and iNTT row kernels, the Shoup rows and the Montgomery rows, on
// the moduli below 2^51 — to each other: the Go kernel, the DQ lanes and
// the IFMA lanes must leave the same words. Each tier runs explicitly, so
// the tests cover the DQ tier on these moduli whatever CPUID selects.

// ifmaTestPrimes returns one NTT prime each of 30, 35, 40, 45 and 49 bits,
// the largest NTT prime below 2^50 and the smallest above it, and the
// largest below 2^51, for rings of degree 2^logN: the moduli the IFMA tier
// serves, from 30 bits to its bound, with both edges of the NTT's two IFMA
// pass sets.
func ifmaTestPrimes(t *testing.T, logN int) []uint64 {
	t.Helper()
	var primes []uint64
	for _, b := range []int{30, 35, 40, 45, 49} {
		ps, err := mod.GenerateNTTPrimes(b, logN, 1)
		if err != nil {
			t.Fatal(err)
		}
		primes = append(primes, ps...)
	}
	return append(primes, largestNTTPrimeBelow(1<<50, logN), smallestNTTPrimeAbove(1<<50, logN),
		largestNTTPrimeBelow(1<<51, logN))
}

// smallestNTTPrimeAbove returns the smallest prime q > bound with
// q ≡ 1 mod 2N, for a power-of-two bound of at least 2N.
func smallestNTTPrimeAbove(bound uint64, logN int) uint64 {
	twoN := uint64(2) << logN
	for q := bound + 1; ; q += twoN {
		if mod.IsPrime(q) {
			return q
		}
	}
}

// skipWithoutIFMA skips t, saying why, on a CPU without the IFMA tier.
func skipWithoutIFMA(t testing.TB) {
	if !useLanes || !useIFMA {
		t.Skip("no AVX-512 IFMA (with F/DQ) on this CPU: the IFMA tier not checked")
	}
}

// TestNTTTiersAgree transforms canonical rows — random, and every word
// q − 1 — forward and back on the DQ and the IFMA tier and compares the
// words with the Go kernel's, at every log2(N) from 5 (the smallest lane
// ring) to 17 (the paper's), both parities, under ifmaTestPrimes. The
// IFMA tier runs the pass set the ring picks for each modulus (Ring.lanes):
// ifmaLanes below 2^50, ifma51Lanes above.
func TestNTTTiersAgree(t *testing.T) {
	for _, tier := range []struct {
		name  string
		lanes func(r *Ring, m *Modulus) *nttLanes
	}{
		{"dq", func(*Ring, *Modulus) *nttLanes { return &dqLanes }},
		{"ifma", (*Ring).lanes},
	} {
		t.Run(tier.name, func(t *testing.T) {
			if !useLanes {
				t.Skip("no AVX-512 F/DQ on this CPU: the lane NTT passes not checked")
			}
			if tier.name == "ifma" {
				skipWithoutIFMA(t)
			}
			for logN := nttLanesMinLogN; logN <= 17; logN++ {
				r, err := NewRing(logN, ifmaTestPrimes(t, logN))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(logN)))
				for _, m := range r.Moduli {
					q := m.Q
					random, top := make([]uint64, r.N), make([]uint64, r.N)
					for j := range random {
						random[j], top[j] = rng.Uint64()%q, q-1
					}
					for _, in := range []struct {
						name string
						row  []uint64
					}{{"random", random}, {"top", top}} {
						for _, dir := range []struct {
							name string
							run  func(a []uint64, m *Modulus, lanes *nttLanes)
						}{{"NTT", r.nttRowRadix4}, {"iNTT", r.inttRowRadix4}} {
							want := append([]uint64{}, in.row...)
							dir.run(want, m, nil)
							got := append([]uint64{}, in.row...)
							dir.run(got, m, tier.lanes(r, m))
							for j := range want {
								if got[j] != want[j] {
									t.Fatalf("logN=%d q=%d (%d bits) %s row: %s word %d is %d, the Go kernel gives %d",
										logN, q, bits.Len64(q), in.name, dir.name, j, got[j], want[j])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestShoupRowTiersAgree runs the three Shoup rows on each tier — the Go
// row, the DQ lanes (ifma false) and the IFMA lanes (ifma true) — and
// compares the words, under ifmaTestPrimes at logN 6, on rows of 0 to 40
// words and one of 259 (so the Go tail runs after the lanes at every
// remainder), with guard words. The operands are canonical residues: random,
// all q − 1 and all 0. mulShoupRow and mulShoupAddRow also take a row of
// multiplicands below 2^52 that are not residues (their IFMA bound);
// subMulShoupRow's IFMA bound is on the difference, which canonical rows
// keep below q.
func TestShoupRowTiersAgree(t *testing.T) {
	skipWithoutIFMA(t)
	const logN, guard, sentinel = 6, 8, 0x5a5a5a5a5a5a5a5a
	rows := []struct {
		name string
		wide bool // takes multiplicands up to 2^52 − 1
		run  func(a, b, out []uint64, w, ws, q uint64, tier string)
	}{
		{"mulShoupRow", true, func(a, _, out []uint64, w, ws, q uint64, tier string) {
			if tier == "go" {
				mulShoupRowGo(a, out, w, ws, q)
				return
			}
			mulShoupRow(a, out, w, ws, q, tier == "ifma")
		}},
		{"mulShoupAddRow", true, func(a, _, out []uint64, w, ws, q uint64, tier string) {
			if tier == "go" {
				mulShoupAddRowGo(a, out, w, ws, q)
				return
			}
			mulShoupAddRow(a, out, w, ws, q, tier == "ifma")
		}},
		{"subMulShoupRow", false, func(a, b, out []uint64, w, ws, q uint64, tier string) {
			if tier == "go" {
				subMulShoupRowGo(a, b, out, w, ws, q)
				return
			}
			subMulShoupRow(a, b, out, w, ws, q, tier == "ifma")
		}},
	}
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 259)
	for _, q := range ifmaTestPrimes(t, logN) {
		rng := rand.New(rand.NewSource(int64(q)))
		fills := []struct {
			name string
			word func() uint64
			wide bool
		}{
			{"random", func() uint64 { return rng.Uint64() % q }, false},
			{"top", func() uint64 { return q - 1 }, false},
			{"zero", func() uint64 { return 0 }, false},
			{"below-2^52", func() uint64 { return 1<<52 - 1 - rng.Uint64()%(1<<20) }, true},
		}
		for _, row := range rows {
			for _, f := range fills {
				if f.wide && !row.wide {
					continue
				}
				for _, w := range []uint64{q - 1, 1, rng.Uint64() % q} {
					ws := mod.ShoupPrecomp(w, q)
					for _, n := range lengths {
						// a is the fill; b and out (read by the accumulating
						// row) are random residues.
						a, b, out := make([]uint64, n+guard), make([]uint64, n+guard), make([]uint64, n+guard)
						for j := range a {
							a[j], b[j], out[j] = sentinel, sentinel, sentinel
							if j < n {
								a[j], b[j], out[j] = f.word(), rng.Uint64()%q, rng.Uint64()%q
							}
						}
						want := append([]uint64{}, out...)
						row.run(a[:n], b[:n], want[:n], w, ws, q, "go")
						for _, tier := range []string{"dq", "ifma"} {
							got := append([]uint64{}, out...)
							row.run(a[:n], b[:n], got[:n], w, ws, q, tier)
							for j := range got {
								if got[j] != want[j] {
									t.Fatalf("q=%d (%d bits) %s, %s fill, w=%d, n=%d: %s word %d is %d, the Go row gives %d",
										q, bits.Len64(q), row.name, f.name, w, n, tier, j, got[j], want[j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMontRowTiersAgree runs the four Montgomery rows on each tier — the Go
// row, the DQ lanes (ifma false) and the IFMA lanes (ifma true) — and
// compares the words, under ifmaTestPrimes at logN 6, on rows of 0 to 40
// words and one of 259 (so the Go tail runs after the lanes at every
// remainder), with guard words. The first operand (the gathered word in
// the gather rows) is a canonical residue, as the IFMA tier needs. The
// fills set both operands to random residues, all q − 1 or all 0, or the
// second to the key-switch MAC's raw words: keystream candidates up to the
// acceptance bound lim, and any 64-bit word up to 2^64 − 1 beside a first
// operand of q − 1 or a random residue. The accumulating rows add to
// random residues.
func TestMontRowTiersAgree(t *testing.T) {
	skipWithoutIFMA(t)
	const logN, guard, sentinel = 6, 8, 0x5a5a5a5a5a5a5a5a
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 259)
	for _, q := range ifmaTestPrimes(t, logN) {
		r, err := NewRing(logN, []uint64{q})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(q)))
		lim := ^(-q % q) // the keystream's largest accepted candidate
		residue := func() uint64 { return rng.Uint64() % q }
		top := func() uint64 { return q - 1 }
		zero := func() uint64 { return 0 }
		fills := []struct {
			name          string
			first, second func() uint64
		}{
			{"residues", residue, residue},
			{"top", top, top},
			{"zero", zero, zero},
			{"key-lim", residue, func() uint64 {
				if rng.Intn(4) == 0 {
					return lim
				}
				return rng.Uint64() % (lim + 1)
			}},
			{"key-raw", func() uint64 {
				if rng.Intn(2) == 0 {
					return q - 1
				}
				return residue()
			}, func() uint64 {
				if rng.Intn(4) == 0 {
					return ^uint64(0)
				}
				return rng.Uint64()
			}},
		}
		for _, k := range elemRows {
			if k.ifmaRow == nil {
				continue
			}
			for _, f := range fills {
				for _, n := range lengths {
					rows := make([][]uint64, len(k.kinds))
					for i := range k.kinds {
						word := f.second
						switch {
						case k.kinds[i] == 'o':
							word = residue
						case i == 0 && !k.gather:
							word = f.first
						}
						rows[i] = make([]uint64, n+guard)
						for j := range rows[i] {
							rows[i][j] = sentinel
							if j < n {
								rows[i][j] = word()
							}
						}
					}
					src := make([]uint64, r.N)
					for j := range src {
						src[j] = f.first()
					}
					table := make([]int, n)
					for j := range table {
						table[j] = rng.Intn(r.N)
					}
					run := func(f func(elemArgs)) [][]uint64 {
						out := make([][]uint64, len(rows))
						args := elemArgs{src: src, table: table, m: r.Moduli[0], rows: make([][]uint64, len(rows))}
						for i := range rows {
							out[i] = append([]uint64{}, rows[i]...)
							args.rows[i] = out[i][:n]
						}
						f(args)
						return out
					}
					want := run(k.goRow)
					for _, tier := range []struct {
						name string
						row  func(elemArgs)
					}{{"dq", k.row}, {"ifma", k.ifmaRow}} {
						got := run(tier.row)
						for i := range got {
							for j := range got[i] {
								if got[i][j] != want[i][j] {
									t.Fatalf("q=%d (%d bits) %s, %s fill, n=%d: %s row %d word %d is %d, the Go row gives %d",
										q, bits.Len64(q), k.name, f.name, n, tier.name, i, j, got[i][j], want[i][j])
								}
							}
						}
					}
				}
			}
		}
	}
}

// montMul52 is MONTMUL52 (elem_amd64.s) on one word, step for step, with
// each 52-bit multiply's half taken from the exact product of its operands'
// low 52 bits, as VPMADD52 does: the macro's overflow argument in Go. It
// returns the word before the final conditional subtraction, with t1 and V,
// the first REDC's result and the second's input, for the caller to bound.
func montMul52(a, b, q, qInv uint64) (r, t1, v uint64) {
	const mask52 = 1<<52 - 1
	lo52 := func(x, y uint64) uint64 {
		_, lo := bits.Mul64(x&mask52, y&mask52)
		return lo & mask52
	}
	hi52 := func(x, y uint64) uint64 {
		hi, lo := bits.Mul64(x&mask52, y&mask52)
		return hi<<12 | lo>>52
	}
	bl, bh := b&mask52, b>>52
	lo := lo52(a, bl)
	m1 := lo52(lo, qInv)
	t1 = min(lo, 1) + hi52(a, bl) + hi52(m1, q)
	v = t1 + lo52(a, bh)
	m2 := lo52(v, qInv) & (1<<12 - 1)
	r = (v+lo52(m2, q))>>12 + (hi52(a, bh)+hi52(m2, q))<<40
	return r, t1, v
}

// TestMontMul52Model checks montMul52 against mr.Mul: t1 below 2q, V below
// 2^53, the word before the subtraction below 2q, and after it mr.Mul's
// word. The operands are the bound's edges — first operands 0, 1, q/2 and
// q − 1, second operands around q, 2^52, 2^63, the keystream's bound and
// 2^64 − 1 — under ifmaTestPrimes at logN 10, then 10^6 random pairs
// (a < q, any 64-bit b, every sixth 2^64 − 1) under those primes and
// random odd moduli below 2^51.
func TestMontMul52Model(t *testing.T) {
	check := func(a, b, q uint64, mr mod.Montgomery) {
		r, t1, v := montMul52(a, b, q, mr.QInv)
		if t1 >= 2*q || v >= 1<<53 || r >= 2*q {
			t.Fatalf("q=%d a=%d b=%d: t1=%d, V=%d, r=%d break the bounds t1 < 2q, V < 2^53, r < 2q", q, a, b, t1, v, r)
		}
		if got, want := min(r, r-q), mr.Mul(a, b); got != want {
			t.Fatalf("q=%d a=%d b=%d: model gives %d, mr.Mul %d", q, a, b, got, want)
		}
	}
	primes := ifmaTestPrimes(t, 10)
	for _, q := range primes {
		mr := mod.NewMontgomery(q)
		lim := ^(-q % q)
		for _, a := range []uint64{0, 1, q / 2, q - 1} {
			for _, b := range []uint64{0, 1, q - 1, q, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1 << 63, lim, ^uint64(0) - 1, ^uint64(0)} {
				check(a, b, q, mr)
			}
		}
	}
	rng := rand.New(rand.NewSource(51))
	for i := range 1_000_000 {
		q := primes[i%len(primes)]
		if i%2 == 1 {
			q = rng.Uint64()>>13 | 1
		}
		b := rng.Uint64()
		if i%6 == 0 {
			b = ^uint64(0)
		}
		check(rng.Uint64()%q, b, q, mod.NewMontgomery(q))
	}
}

// TestModulusTier checks which moduli take the IFMA tier on a CPU with
// IFMA (ifma: its NTT passes, Shoup rows and Montgomery rows) and which
// NTT pass set each runs: the largest NTT prime below 2^50 ifmaLanes, the
// smallest above 2^50 and the largest below 2^51 ifma51Lanes, the smallest
// above 2^51 the DQ tier — and every one the DQ tier once forceDQ has
// turned the IFMA tier off for moduli built afterwards.
func TestModulusTier(t *testing.T) {
	const logN = 10
	// The bounds are written out, so a changed constant fails here.
	primes := []uint64{
		largestNTTPrimeBelow(1<<50, logN),
		smallestNTTPrimeAbove(1<<50, logN),
		largestNTTPrimeBelow(1<<51, logN),
		smallestNTTPrimeAbove(1<<51, logN),
	}
	check := func(t *testing.T, on bool) {
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []struct {
			ifma  bool
			lanes *nttLanes
			name  string
		}{
			{on, &ifmaLanes, "ifma"},
			{on, &ifma51Lanes, "ifma51"},
			{on, &ifma51Lanes, "ifma51"},
			{false, nil, ""},
		} {
			m := r.Moduli[i]
			if m.ifma != want.ifma {
				t.Errorf("q=%d (%d bits): ifma %v, want %v", m.Q, bits.Len64(m.Q), m.ifma, want.ifma)
			}
			if !want.ifma {
				want.lanes, want.name = &dqLanes, "dq"
			}
			if useLanes && r.lanes(m) != want.lanes {
				t.Errorf("q=%d (%d bits): lanes does not pick the %s tier", m.Q, bits.Len64(m.Q), want.name)
			}
		}
	}
	t.Run("cpuid", func(t *testing.T) { check(t, useIFMA) })
	t.Run("dq", func(t *testing.T) {
		forceDQ(t)
		check(t, false)
	})
}

// BenchmarkShoupRowTiers times mulShoupRow on each tier over one row of
// N = 2^12 canonical words — serial, no dispatch — under a 45-bit prime
// and the largest NTT prime below 2^51 (q=51), and reports ns per word.
func BenchmarkShoupRowTiers(b *testing.B) {
	const logN, n = 12, 1 << 12
	for _, logQ := range []int{45, 51} {
		q := benchPrime(b, logQ, logN)
		rng := rand.New(rand.NewSource(42))
		a, out := make([]uint64, n), make([]uint64, n)
		for j := range a {
			a[j] = rng.Uint64() % q
		}
		w := rng.Uint64() % q
		ws := mod.ShoupPrecomp(w, q)
		for _, tier := range []string{"go", "dq", "ifma"} {
			b.Run(fmt.Sprintf("q=%d/%s", logQ, tier), func(b *testing.B) {
				switch {
				case tier == "dq" && !useLanes:
					b.Skip("no AVX-512 F/DQ on this CPU: the lane rows cannot run")
				case tier == "ifma":
					skipWithoutIFMA(b)
				}
				for i := 0; i < b.N; i++ {
					if tier == "go" {
						mulShoupRowGo(a, out, w, ws, q)
					} else {
						mulShoupRow(a, out, w, ws, q, tier == "ifma")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/word")
			})
		}
	}
}
