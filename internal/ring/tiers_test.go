package ring

import (
	"math/bits"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// This file pins the three tiers of the kernels that have an IFMA tier —
// the NTT and iNTT row kernels and the Shoup rows — to each other on the
// moduli the IFMA tier serves (q < 2^50): the Go kernel, the DQ lanes and
// the IFMA lanes must leave the same words. Each tier runs explicitly, so
// the test covers the DQ tier on these moduli whatever CPUID selects.

// ifmaTestPrimes returns one NTT prime each of 30, 35, 40, 45 and 49 bits
// and the largest NTT prime below 2^50 for rings of degree 2^logN.
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
	return append(primes, largestNTTPrimeBelow(ifmaBound, logN))
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
// ring) to 17 (the paper's), both parities, under ifmaTestPrimes.
func TestNTTTiersAgree(t *testing.T) {
	for _, tier := range []struct {
		name  string
		lanes *nttLanes
	}{{"dq", &dqLanes}, {"ifma", &ifmaLanes}} {
		t.Run(tier.name, func(t *testing.T) {
			if !useLanes {
				t.Skip("no AVX-512 F/DQ on this CPU: the lane NTT passes not checked")
			}
			if tier.lanes == &ifmaLanes {
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
							dir.run(got, m, tier.lanes)
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

// TestModulusTier checks which moduli take the IFMA tier: exactly those
// below 2^50, on a CPU with IFMA, and none once forceDQ has turned the tier
// off for moduli built afterwards.
func TestModulusTier(t *testing.T) {
	const logN = 10
	below := largestNTTPrimeBelow(ifmaBound, logN)
	above, err := mod.GenerateNTTPrimes(51, logN, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, wantBelow bool) {
		r, err := NewRing(logN, []uint64{below, above[0]})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []bool{wantBelow, false} {
			m := r.Moduli[i]
			if m.ifma != want {
				t.Errorf("q=%d (%d bits): ifma %v, want %v", m.Q, bits.Len64(m.Q), m.ifma, want)
			}
			wantLanes, name := &dqLanes, "dq"
			if want {
				wantLanes, name = &ifmaLanes, "ifma"
			}
			if useLanes && r.lanes(m) != wantLanes {
				t.Errorf("q=%d: lanes does not pick the %s tier", m.Q, name)
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
// N = 2^12 canonical words under a 45-bit prime — serial, no dispatch —
// and reports ns per word.
func BenchmarkShoupRowTiers(b *testing.B) {
	const logN = 12
	primes, err := mod.GenerateNTTPrimes(45, logN, 1)
	if err != nil {
		b.Fatal(err)
	}
	q, n := primes[0], 1<<logN
	rng := rand.New(rand.NewSource(42))
	a, out := make([]uint64, n), make([]uint64, n)
	for j := range a {
		a[j] = rng.Uint64() % q
	}
	w := rng.Uint64() % q
	ws := mod.ShoupPrecomp(w, q)
	for _, tier := range []string{"go", "dq", "ifma"} {
		b.Run(tier, func(b *testing.B) {
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
