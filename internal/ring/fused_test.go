package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"bts/internal/mod"
)

// This file pins the fused radix-4 row kernels to the rest of the kernel
// hierarchy: at every (logN parity, level, workers, block) configuration the
// production NTT/INTT dispatch, the forced radix-4 row kernels, the scalar
// Montgomery radix-2 kernels and the Barrett reference must produce
// bit-identical residues, and a forward/inverse round trip must be exact.
// Run with -race to also certify the row-parallel dispatch.

// fusedSweepConfigs enumerates the engine shapes of the sweep. NumCPU rides
// along so many-core hosts exercise their real fan-out (on small hosts it
// duplicates an existing shape, which is harmless).
func fusedSweepConfigs() []struct{ workers, block int } {
	return []struct{ workers, block int }{
		{0, 0},                    // serial: every row takes the radix-4 path
		{1, 64},                   // single worker, forced small blocks
		{3, 48},                   // odd worker count, ragged odd blocks
		{7, 1 << 20},              // wide pool, limb-only dispatch
		{runtime.NumCPU(), 33},    // host parallelism, odd blocks
		{runtime.NumCPU() + 2, 0}, // oversubscribed, default blocks
	}
}

func TestFusedRadix4BitIdentity(t *testing.T) {
	// Both log2(N) parities: even logN runs pure fused passes, odd logN
	// additionally exercises the radix-2 head (NTT) and tail (iNTT) stages.
	// logN 2 and 3 are the degenerate kernels: one inverse pass that is both
	// the first and the last, and a radix-2 head straight into the last pass.
	// From logN 5 on the lanes subtests run the AVX-512 passes: 5 and 6 are
	// the smallest rings (two h = 4 groups), 7 has every pass kind, and 10
	// and 11 have several straight passes.
	for _, logN := range []int{2, 3, 5, 6, 7, 10, 11} {
		// 60-bit primes sit at the top of the lazy window's headroom (the
		// fused kernels' 4q bound is tightest there); a 45-bit chain rides
		// along as the common case.
		primes60, err := mod.GenerateNTTPrimes(60, logN, 2)
		if err != nil {
			t.Fatal(err)
		}
		primes45, err := mod.GenerateNTTPrimes(45, logN, 2)
		if err != nil {
			t.Fatal(err)
		}
		primes := append(append([]uint64{}, primes60...), primes45...)
		for _, cfg := range fusedSweepConfigs() {
			cfg := cfg
			t.Run(fmt.Sprintf("logN=%d_workers=%d_block=%d", logN, cfg.workers, cfg.block), func(t *testing.T) {
				onPaths(t, func(t *testing.T) { fusedIdentity(t, logN, primes, cfg.workers, cfg.block) })
			})
		}
	}
}

// fusedIdentity checks the production NTT/INTT dispatch on a ring of the
// given primes and engine shape against the radix-2 and Barrett oracles at
// every level, the exact round trip, and the single-row entry points.
func fusedIdentity(t *testing.T, logN int, primes []uint64, workers, block int) {
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(workers)
	if block > 0 {
		e.SetBlockSize(block)
	}
	r.SetEngine(e)
	rng := rand.New(rand.NewSource(1234))
	for level := 0; level < len(primes); level++ {
		a := r.NewPolyLevel(level)
		r.SampleUniform(rng, a, level)
		aM := r.CopyNew(a, level)
		r.MForm(aM, aM, level)

		// Forward: production dispatch vs radix-2 vs Barrett.
		pAuto, pR2, pB := r.CopyNew(aM, level), r.CopyNew(aM, level), r.CopyNew(a, level)
		r.NTT(pAuto, level)
		r.NTTRadix2(pR2, level)
		r.NTTBarrett(pB, level)
		if !r.Equal(pAuto, pR2, level) {
			t.Fatalf("NTT level %d: dispatch and radix-2 kernels diverge", level)
		}
		assertPlainEqual(t, r, fmt.Sprintf("NTT level %d", level), pAuto, pB, level)
		fwd := r.CopyNew(pAuto, level)

		// Inverse: same triangle, then an exact round trip.
		r.INTT(pAuto, level)
		r.INTTRadix2(pR2, level)
		r.INTTBarrett(pB, level)
		if !r.Equal(pAuto, pR2, level) {
			t.Fatalf("INTT level %d: dispatch and radix-2 kernels diverge", level)
		}
		assertPlainEqual(t, r, fmt.Sprintf("INTT level %d", level), pAuto, pB, level)
		if !r.Equal(pAuto, aM, level) {
			t.Fatalf("level %d: NTT/INTT round trip not exact", level)
		}

		// Single-row inverse (ModDown's dropped rows).
		for i := 0; i <= level; i++ {
			rowAuto := append([]uint64{}, fwd.Coeffs[i]...)
			r.INTTRow(rowAuto, i)
			for j := range rowAuto {
				if rowAuto[j] != aM.Coeffs[i][j] {
					t.Fatalf("INTTRow limb %d: round trip not exact at coeff %d", i, j)
				}
			}
		}
	}
}

// TestFusedRadix4LazyWindowWorstCase drives the fused kernels with
// adversarial rows — all coefficients at q-1, the largest canonical residue —
// under the widest supported modulus, so any overflow of the [0, 4q) window
// (which uniform sampling would hit only with vanishing probability at every
// butterfly simultaneously) breaks the round trip deterministically, on both
// kernel paths.
func TestFusedRadix4LazyWindowWorstCase(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		for _, logN := range []int{5, 6, 10, 11} {
			primes, err := mod.GenerateNTTPrimes(61, logN, 2) // the generator's widest tier
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRing(logN, primes)
			if err != nil {
				t.Fatal(err)
			}
			level := len(primes) - 1
			a := r.NewPolyLevel(level)
			for i := 0; i <= level; i++ {
				for j := 0; j < r.N; j++ {
					a.Coeffs[i][j] = r.Moduli[i].Q - 1
				}
			}
			ref := r.CopyNew(a, level)
			r.NTT(a, level)
			r.NTTRadix2(ref, level)
			if !r.Equal(a, ref, level) {
				t.Fatalf("logN=%d: fused NTT diverges from radix-2 on all-(q-1) rows", logN)
			}
			r.INTT(a, level)
			r.INTTRadix2(ref, level)
			if !r.Equal(a, ref, level) {
				t.Fatalf("logN=%d: fused INTT diverges from radix-2 on all-(q-1) rows", logN)
			}
		}
	})
}

// TestNTTInverseRoundTripIsIdentity pins the fact the key-switch relies on
// to leave its own decomposition group in the NTT domain: both transforms
// end in canonical residues — their last stage reduces, no pass follows —
// so NTT(INTT(x)) and INTT(NTT(x)) give x back word for word, serially and
// on a pool wider than the rows, for the extreme rows as well as random
// ones, under 60- and 61-bit primes at both log2(N) parities, on both
// kernel paths. NTTExcept rides along: it must transform exactly the rows it is
// not told to skip.
func TestNTTInverseRoundTripIsIdentity(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		for _, logN := range []int{8, 9, 12, 13} {
			var primes []uint64
			for _, bits := range []int{61, 60, 45} {
				ps, err := mod.GenerateNTTPrimes(bits, logN, 2)
				if err != nil {
					t.Fatal(err)
				}
				primes = append(primes, ps...)
			}
			level := len(primes) - 1
			n := 1 << logN
			// Six rows (and, below, one) on eight workers: the rows cannot fill
			// the pool, at block sizes that shard every other kernel.
			for _, cfg := range []struct{ workers, block int }{
				{0, 0}, {8, 16}, {8, 33}, {8, n},
			} {
				r, err := NewRing(logN, primes)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(cfg.workers)
				if cfg.block > 0 {
					e.SetBlockSize(cfg.block)
				}
				r.SetEngine(e)
				rng := rand.New(rand.NewSource(4321))
				zero, top, random := r.NewPolyLevel(level), r.NewPolyLevel(level), r.NewPolyLevel(level)
				for i, m := range r.Moduli {
					for j := range top.Coeffs[i] {
						top.Coeffs[i][j] = m.Q - 1
					}
				}
				r.SampleUniform(rng, random, level)
				for name, x := range map[string]*Poly{"all-0": zero, "all-(q-1)": top, "random": random} {
					for _, lvl := range []int{0, level} {
						where := fmt.Sprintf("logN=%d workers=%d block=%d level=%d %s", logN, cfg.workers, cfg.block, lvl, name)
						y := r.CopyNew(x, lvl)
						r.INTT(y, lvl)
						assertCanonical(t, r, y, lvl, where+": INTT")
						r.NTT(y, lvl)
						assertCanonical(t, r, y, lvl, where+": NTT")
						if !r.Equal(x, y, lvl) {
							t.Fatalf("%s: NTT(INTT(x)) != x", where)
						}
						r.NTT(y, lvl)
						r.INTT(y, lvl)
						if !r.Equal(x, y, lvl) {
							t.Fatalf("%s: INTT(NTT(x)) != x", where)
						}
					}
				}

				full := r.CopyNew(random, level)
				r.NTT(full, level)
				for _, skip := range [][2]int{{0, level}, {0, 0}, {1, 2}, {level, level}, {2, level + 3}} {
					got := r.CopyNew(random, level)
					r.NTTExcept(got, level, skip[0], skip[1])
					for i := 0; i <= level; i++ {
						want := full.Coeffs[i]
						if i >= skip[0] && i <= skip[1] {
							want = random.Coeffs[i]
						}
						for j := range want {
							if got.Coeffs[i][j] != want[j] {
								t.Fatalf("logN=%d workers=%d block=%d: NTTExcept skip %v wrong at row %d", logN, cfg.workers, cfg.block, skip, i)
							}
						}
					}
				}
			}
		}
	})
}

// assertCanonical fails t unless every residue of p's rows [0..level] is
// below its modulus.
func assertCanonical(t *testing.T, r *Ring, p *Poly, level int, where string) {
	t.Helper()
	for i := 0; i <= level; i++ {
		for j, v := range p.Coeffs[i] {
			if v >= r.Moduli[i].Q {
				t.Fatalf("%s: row %d coeff %d = %d not below q = %d", where, i, j, v, r.Moduli[i].Q)
			}
		}
	}
}

// nttPassPair is one pass of the fused row kernels on two tiers: the Go
// pass and a lane tier's counterpart, each applied in place to a whole row
// whose words lie in [0, window·q), leaving words in [0, out·q) (out = 1:
// canonical).
type nttPassPair struct {
	name          string
	window, out   uint64
	goPass, lanes func(a []uint64)
}

// nttPassPairs lists every pass nttRowRadix4 and inttRowRadix4 run on r
// under m, with the arguments they run it with, the lane side on tier k.
func nttPassPairs(r *Ring, m *Modulus, k *nttLanes) []nttPassPair {
	n, q := r.N, m.Q
	tw, itw := m.psiShoup, m.psiInvShoup
	ni, nis, wn, wns := m.nInvScaled(itw[2])
	odd := r.LogN&1 == 1
	var ps []nttPassPair
	mLen := 1
	if odd {
		ps = append(ps, nttPassPair{"nttButterflies", 4, 4,
			func(a []uint64) { nttButterflies(a[:n/2], a[n/2:], tw[2], tw[3], q) },
			func(a []uint64) { k.butterflies(a[:n/2], a[n/2:], tw[2], tw[3], q) }})
		mLen = 2
	}
	for ; mLen < n/4; mLen *= 4 {
		mLen, h := mLen, n/(4*mLen)
		ps = append(ps, nttPassPair{fmt.Sprintf("nttQuartets/h=%d", h), 4, 4,
			func(a []uint64) { nttPass(a, mLen, h, tw, q, nil) },
			func(a []uint64) { nttPass(a, mLen, h, tw, q, k) }})
	}
	ps = append(ps, nttPassPair{"nttLastPass", 4, 1,
		func(a []uint64) { nttLastPass(a, tw[n/2:n], tw[n:2*n], q) },
		func(a []uint64) { k.lastPass(a, tw[n/2:n], tw[n:2*n], q) }})

	ps = append(ps, nttPassPair{"inttFirstPass", 2, 2,
		func(a []uint64) { inttFirstPass(a, itw[n:2*n], itw[n/2:n], q) },
		func(a []uint64) { k.firstPass(a, itw[n:2*n], itw[n/2:n], q) }})
	for h2 := n / 16; h2 > 1; h2 /= 4 {
		h2, t := h2, n/(4*h2)
		ps = append(ps, nttPassPair{fmt.Sprintf("inttQuartets/t=%d", t), 2, 2,
			func(a []uint64) { inttPass(a, h2, t, itw, q, nil) },
			func(a []uint64) { inttPass(a, h2, t, itw, q, k) }})
	}
	if odd {
		ps = append(ps, nttPassPair{"inttButterfliesLast", 2, 1,
			func(a []uint64) { inttButterfliesLast(a[:n/2], a[n/2:], ni, nis, wn, wns, q) },
			func(a []uint64) { k.butterfliesLast(a[:n/2], a[n/2:], ni, nis, wn, wns, q) }})
	} else {
		t := n / 4
		lastQuartets := func(f func(x0, x1, x2, x3 []uint64, wA0, wA0s, wA1, wA1s, ni, nis, wn, wns, q uint64)) func(a []uint64) {
			return func(a []uint64) {
				f(a[:t], a[t:2*t], a[2*t:3*t], a[3*t:4*t], itw[4], itw[5], itw[6], itw[7], ni, nis, wn, wns, q)
			}
		}
		ps = append(ps, nttPassPair{"inttLastQuartets", 2, 1, lastQuartets(inttLastQuartets), lastQuartets(k.lastQuartets)})
	}
	return ps
}

// largestNTTPrimeBelow62 returns the largest prime q < 2^62 with
// q ≡ 1 mod 2N: the widest modulus the package takes, where 4q is within
// one bit of overflowing the [0, 4q) window.
func largestNTTPrimeBelow62(logN int) uint64 { return largestNTTPrimeBelow(1<<62, logN) }

// largestNTTPrimeBelow returns the largest prime q < bound with
// q ≡ 1 mod 2N, for a power-of-two bound above 2N.
func largestNTTPrimeBelow(bound uint64, logN int) uint64 {
	twoN := uint64(2) << logN
	for q := bound - twoN + 1; ; q -= twoN {
		if mod.IsPrime(q) {
			return q
		}
	}
}

// TestNTTLanePassWindowEdges pins every DQ-tier pass of ntt_amd64.s to the
// Go pass it replaces, word for word, across the pass's input window —
// [0, 4q) forward, [0, 2q) inverse: on random words, on rows at the
// window's top value and on rows alternating top and zero. The primes are
// 50, 60 and 61 bits wide and the largest NTT prime below 2^62; the rings
// cover every pass kind at both log2(N) parities. Guard words past each
// row must come back untouched.
func TestNTTLanePassWindowEdges(t *testing.T) {
	if !useLanes {
		t.Skip("no AVX-512 F/DQ on this CPU: the lane NTT passes not checked")
	}
	for _, logN := range []int{5, 6, 7, 10} {
		primes := []uint64{largestNTTPrimeBelow62(logN)}
		for _, bits := range []int{50, 60, 61} {
			ps, err := mod.GenerateNTTPrimes(bits, logN, 1)
			if err != nil {
				t.Fatal(err)
			}
			primes = append(primes, ps...)
		}
		for _, q := range primes {
			nttPassWindowEdges(t, logN, q, &dqLanes, q == primes[0])
		}
	}
}

// TestNTTIFMAPassWindowEdges runs every pass of both IFMA pass sets
// against the Go pass on TestNTTLanePassWindowEdges' rows: ifmaLanes under
// q of 30, 40, 45 and 49 bits and the largest NTT prime below 2^50, where
// the window's top words are the largest the 52-bit products take as they
// stand, and ifma51Lanes under the smallest NTT prime above 2^50 and the
// largest below 2^51, where the top words (4q − 1 forward, 2q − 1
// inverse) pass 2^52 until the pass reduces them. The 52-bit quotient can
// fall one short of the Go pass's, so a lazy output word may exceed the Go
// one by q: each word must be the same residue below the pass's output
// bound (4q forward, 2q inverse), which makes the last passes' canonical
// words equal.
func TestNTTIFMAPassWindowEdges(t *testing.T) {
	skipWithoutIFMA(t)
	for _, logN := range []int{5, 6, 7, 10} {
		primes := []uint64{largestNTTPrimeBelow(ifmaNarrowBound, logN)}
		for _, bits := range []int{30, 40, 45, 49} {
			ps, err := mod.GenerateNTTPrimes(bits, logN, 1)
			if err != nil {
				t.Fatal(err)
			}
			primes = append(primes, ps...)
		}
		for _, q := range primes {
			nttPassWindowEdges(t, logN, q, &ifmaLanes, q == primes[0])
		}
		for _, q := range []uint64{smallestNTTPrimeAbove(ifmaNarrowBound, logN), largestNTTPrimeBelow(ifmaBound, logN)} {
			nttPassWindowEdges(t, logN, q, &ifma51Lanes, false)
		}
	}
}

// nttPassWindowEdges compares every pass of tier k with its Go pass on a
// ring of degree 2^logN over q, on random, top-of-window and top-zero rows
// with guard words: word for word for the DQ tier, as the same residue
// below the pass's output bound for the IFMA pass sets. It logs the pass list
// when logPasses is set.
func nttPassWindowEdges(t *testing.T, logN int, q uint64, k *nttLanes, logPasses bool) {
	t.Helper()
	const guard, sentinel = 8, 0x5a5a5a5a5a5a5a5a
	n := 1 << logN
	r, err := NewRing(logN, []uint64{q})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(q)))
	passes := nttPassPairs(r, r.Moduli[0], k)
	if logPasses {
		names := make([]string, len(passes))
		for i, p := range passes {
			names[i] = p.name
		}
		t.Logf("logN=%d: %v", logN, names)
	}
	for _, p := range passes {
		top := p.window*q - 1
		inputs := []struct {
			name string
			word func(j int) uint64
		}{
			{"random", func(int) uint64 { return rng.Uint64() % (p.window * q) }},
			{"top", func(int) uint64 { return top }},
			{"top-zero", func(j int) uint64 { return top * uint64(1-j&1) }},
		}
		for _, in := range inputs {
			want := make([]uint64, n+guard)
			for j := range want {
				want[j] = sentinel
				if j < n {
					want[j] = in.word(j)
				}
			}
			got := append([]uint64{}, want...)
			p.goPass(want[:n])
			p.lanes(got[:n])
			for j := range want {
				ok := got[j] == want[j]
				if k != &dqLanes && j < n {
					ok = got[j] < p.out*q && got[j]%q == want[j]%q
				}
				if !ok {
					t.Fatalf("logN=%d q=%d (%d bits) %s, %s row: word %d is %d, the Go pass gives %d (output bound %dq)",
						logN, q, bits.Len64(q), p.name, in.name, j, got[j], want[j], p.out)
				}
			}
		}
	}
}
