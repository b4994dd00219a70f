package ring

import (
	"fmt"
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
// Run with -race to also certify the sharded schedules the dispatch falls
// back to at low levels.

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
	for _, logN := range []int{2, 3, 5, 6} {
		const nPrimes = 4
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
				r, err := NewRing(logN, primes)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEngine(cfg.workers)
				defer e.Close()
				if cfg.block > 0 {
					e.SetBlockSize(cfg.block)
				}
				r.SetEngine(e)
				rng := rand.New(rand.NewSource(1234))
				for level := 0; level < nPrimes; level++ {
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

					// Single-row entry points (the staged-rescale path).
					for i := 0; i <= level; i++ {
						rowAuto := append([]uint64{}, aM.Coeffs[i]...)
						r.NTTRow(rowAuto, i)
						for j := range rowAuto {
							if rowAuto[j] != fwd.Coeffs[i][j] {
								t.Fatalf("NTTRow limb %d: diverges from full transform at coeff %d", i, j)
							}
						}
						r.INTTRow(rowAuto, i)
						for j := range rowAuto {
							if rowAuto[j] != aM.Coeffs[i][j] {
								t.Fatalf("INTTRow limb %d: round trip not exact at coeff %d", i, j)
							}
						}
					}
				}
			})
		}
	}
}

// TestFusedRadix4LazyWindowWorstCase drives the fused kernels with
// adversarial rows — all coefficients at q-1, the largest canonical residue —
// under the widest supported modulus, so any overflow of the [0, 4q) window
// (which uniform sampling would hit only with vanishing probability at every
// butterfly simultaneously) breaks the round trip deterministically.
func TestFusedRadix4LazyWindowWorstCase(t *testing.T) {
	for _, logN := range []int{5, 6} {
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
}

// TestNTTInverseRoundTripIsIdentity pins the fact the key-switch relies on
// to leave its own decomposition group in the NTT domain: both transforms
// end in canonical residues — their last stage reduces, no pass follows —
// so NTT(INTT(x)) and INTT(NTT(x)) give x back word for word, on the fused
// radix-4 schedule and on the stage-sharded one, for the extreme rows as
// well as random ones, under 60- and 61-bit primes at both log2(N)
// parities. NTTExcept rides along: it must transform exactly the rows it is
// not told to skip.
func TestNTTInverseRoundTripIsIdentity(t *testing.T) {
	for _, logN := range []int{8, 9} {
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
		// Four rows (and, below, one) on eight workers: the rows cannot fill
		// the pool, so blocks of 16 and 33 take the stage-sharded schedule
		// and blocks of N the fused radix-4 rows.
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
			e.Close()
		}
	}
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
