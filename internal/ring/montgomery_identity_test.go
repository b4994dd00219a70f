package ring

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"bts/internal/mod"
)

// This file pins the Montgomery refactor to the Barrett ground truth: for
// every ring kernel, IForm(kernel_M(MForm(x))) must be bit-identical to
// kernel_Barrett(x), at every level of the chain and under every engine
// shape (serial, limb-parallel, coefficient-block sharded with odd blocks).
// Run with -race to also certify the sharded dispatch.

// identityConfigs enumerates the (workers, blockSize) engine shapes the
// identity checks run under.
var identityConfigs = []struct{ workers, block int }{
	{0, 0},       // serial, default blocks
	{1, 64},      // single worker, forced small blocks
	{3, 48},      // odd worker count, ragged blocks
	{7, 1 << 20}, // wide pool, limb-only dispatch
}

// assertPlainEqual compares the IForm of an M-form polynomial against a plain
// reference, word for word.
func assertPlainEqual(t *testing.T, r *Ring, label string, mform, plain *Poly, level int) {
	t.Helper()
	got := r.CopyNew(mform, level)
	r.IForm(got, got, level)
	for i := 0; i <= level; i++ {
		for j := 0; j < r.N; j++ {
			if got.Coeffs[i][j] != plain.Coeffs[i][j] {
				t.Fatalf("%s: limb %d coeff %d: M-form path %d, Barrett path %d",
					label, i, j, got.Coeffs[i][j], plain.Coeffs[i][j])
			}
		}
	}
}

func TestMontgomeryKernelsBitIdenticalToBarrett(t *testing.T) {
	const logN = 6
	const nPrimes = 4
	primes, err := mod.GenerateNTTPrimes(45, logN, nPrimes)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range identityConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("workers=%d_block=%d", cfg.workers, cfg.block), func(t *testing.T) {
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
			rng := rand.New(rand.NewSource(99))
			for level := 0; level < nPrimes; level++ {
				// Plain ground-truth operands and their M-form images
				// (uniform words serve as true residues directly; x ↦ xR is
				// a bijection, so the M-form copies are uniform too).
				a := r.NewPolyLevel(level)
				b := r.NewPolyLevel(level)
				r.SampleUniform(rng, a, level)
				r.SampleUniform(rng, b, level)
				aM := r.CopyNew(a, level)
				bM := r.CopyNew(b, level)
				r.MForm(aM, aM, level)
				r.MForm(bM, bM, level)

				// Forward and inverse NTT.
				pM, pB := r.CopyNew(aM, level), r.CopyNew(a, level)
				r.NTT(pM, level)
				r.NTTBarrett(pB, level)
				assertPlainEqual(t, r, fmt.Sprintf("NTT level %d", level), pM, pB, level)
				r.INTT(pM, level)
				r.INTTBarrett(pB, level)
				assertPlainEqual(t, r, fmt.Sprintf("INTT level %d", level), pM, pB, level)

				// Element-wise products.
				outM, outB := r.NewPolyLevel(level), r.NewPolyLevel(level)
				r.MulCoeffs(aM, bM, outM, level)
				r.MulCoeffsBarrett(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulCoeffs level %d", level), outM, outB, level)

				r.MulCoeffsAndAdd(aM, bM, outM, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulCoeffsAndAdd level %d", level), outM, outB, level)

				// Scalar multiply, including an unreduced scalar.
				for _, s := range []uint64{0, 1, 12345, ^uint64(0) - 17} {
					r.MulScalar(aM, s, outM, level)
					r.MulScalarBarrett(a, s, outB, level)
					assertPlainEqual(t, r, fmt.Sprintf("MulScalar(%d) level %d", s, level), outM, outB, level)
				}

				// Form-agnostic kernels: the same function is its own
				// reference on plain operands.
				r.Add(aM, bM, outM, level)
				r.Add(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Add level %d", level), outM, outB, level)
				r.Sub(aM, bM, outM, level)
				r.Sub(a, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Sub level %d", level), outM, outB, level)
				r.Neg(aM, outM, level)
				r.Neg(a, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Neg level %d", level), outM, outB, level)

				// MulByMonomialNTT multiplies by an M-form twiddle with a
				// fused REDC, so it preserves the operand's form: running it
				// on the plain copy yields the plain reference.
				r.MulByMonomialNTT(aM, r.N/2, outM, level)
				r.MulByMonomialNTT(a, r.N/2, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("MulByMonomialNTT level %d", level), outM, outB, level)

				// Lazy 128-bit MAC chain: two accumulations then one fused
				// Barrett+REDC reduction, against two reduced Barrett MACs.
				acc := r.GetAcc(level)
				r.MulCoeffsAndAddLazy(aM, bM, acc, level)
				r.MulCoeffsAndAddLazy(bM, bM, acc, level)
				r.ReduceAcc(acc, outM, level)
				r.PutAcc(acc)
				r.Zero(outB, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				r.MulCoeffsAndAddBarrett(b, b, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("Acc128 MAC level %d", level), outM, outB, level)

				// Fused gather-MAC against permute-then-MAC.
				g := r.GaloisElement(1)
				table := r.AutoIndexNTT(g)
				acc = r.GetAcc(level)
				r.MulCoeffsAndAddLazy(aM, bM, acc, level)
				r.MulGatherAndAddLazy(bM, table, aM, acc, level)
				r.ReduceAcc(acc, outM, level)
				r.PutAcc(acc)
				perm := r.NewPolyLevel(level)
				r.AutomorphismNTT(b, g, perm, level)
				r.Zero(outB, level)
				r.MulCoeffsAndAddBarrett(a, b, outB, level)
				r.MulCoeffsAndAddBarrett(perm, a, outB, level)
				assertPlainEqual(t, r, fmt.Sprintf("gather MAC level %d", level), outM, outB, level)
			}
		})
	}
}

// bconvQhat returns the big-integer constants Q/q_j of a source base,
// Q = Π q_j.
func bconvQhat(from []*Modulus) []*big.Int {
	bigQ := big.NewInt(1)
	for _, m := range from {
		bigQ.Mul(bigQ, new(big.Int).SetUint64(m.Q))
	}
	qhat := make([]*big.Int, len(from))
	for j, m := range from {
		qhat[j] = new(big.Int).Quo(bigQ, new(big.Int).SetUint64(m.Q))
	}
	return qhat
}

// bconvOracle evaluates the exact centered BConv formula in big.Int
// arithmetic on true residues x[j][k]: y_j = x_j·(Q/q_j)^-1 mod q_j, then
// Σ_j f(y_j)·(Q/q_j) mod p_i with f the centered representative.
func bconvOracle(from, to []*Modulus, x [][]uint64) [][]uint64 {
	qhat := bconvQhat(from)
	inv := make([]*big.Int, len(from))
	for j, m := range from {
		qb := new(big.Int).SetUint64(m.Q)
		inv[j] = new(big.Int).ModInverse(new(big.Int).Mod(qhat[j], qb), qb)
	}
	n := len(x[0])
	sums := make([]*big.Int, n)
	y := new(big.Int)
	for k := range sums {
		sums[k] = new(big.Int)
		for j, m := range from {
			qb := new(big.Int).SetUint64(m.Q)
			y.Mul(y.SetUint64(x[j][k]), inv[j])
			y.Mod(y, qb)
			if y.Uint64() > m.Q>>1 {
				y.Sub(y, qb) // centered representative
			}
			sums[k].Add(sums[k], y.Mul(y, qhat[j]))
		}
	}
	want := make([][]uint64, len(to))
	for i, m := range to {
		want[i] = make([]uint64, n)
		pb := new(big.Int).SetUint64(m.Q)
		for k := range want[i] {
			want[i][k] = y.Mod(sums[k], pb).Uint64()
		}
	}
	return want
}

// bconvBoundaryInputs returns n ≥ 5+len(from) coefficients of true residues
// over from: uniform, except for planted stage-1 digits at the centering
// boundaries. Coefficients 0..3 carry y = 0, (q-1)/2, (q+1)/2 and q-1 on
// every limb at once — the last is the worst case for the 128-bit
// accumulator, every product and the full nf·[-Q] correction — coefficient
// 4+j straddles the threshold on limb j alone, and the final coefficient,
// which a ragged n puts in a partial tile, repeats the worst case.
func bconvBoundaryInputs(rng *rand.Rand, from []*Modulus, n int) [][]uint64 {
	qhat := bconvQhat(from)
	x := make([][]uint64, len(from))
	for j, m := range from {
		q := m.Q
		// A digit y is planted as x = y·(Q/q_j) mod q_j.
		qh := new(big.Int).Mod(qhat[j], new(big.Int).SetUint64(q)).Uint64()
		x[j] = make([]uint64, n)
		for k := range x[j] {
			x[j][k] = uniformUint64(rng, q)
		}
		for k, y := range []uint64{0, (q - 1) / 2, (q + 1) / 2, q - 1} {
			x[j][k] = mod.Mul(y, qh, q)
		}
		for k := range from {
			y := (q - 1) / 2
			if k == j {
				y++
			}
			x[j][4+k] = mod.Mul(y, qh, q)
		}
		x[j][n-1] = mod.Mul(q-1, qh, q)
	}
	return x
}

// mformRows converts true-residue rows to M-form, as ModUp presents them.
func mformRows(ms []*Modulus, x [][]uint64) [][]uint64 {
	out := make([][]uint64, len(x))
	for j := range x {
		out[j] = make([]uint64, len(x[j]))
		for k, v := range x[j] {
			out[j][k] = ms[j].MRed.MForm(v)
		}
	}
	return out
}

// bconvShapes are the conversions the BConv identity tests run: a short
// ModUp, and the INS-1 key-switch shape (28 source limbs around 2^60, 28
// target limbs around 2^61) over a row length that leaves the last tile
// partial.
var bconvShapes = []struct {
	name                       string
	logN, bitsFrom, nf, bitsTo int
	nt, n                      int
}{
	{"3to2", 5, 45, 3, 46, 2, 1 << 5},
	{"ins1_28to28", 5, 60, 28, 61, 28, convTile + 44},
}

// TestBasisExtenderBitIdenticalAcrossEngines pins BConv to a serial big.Int
// implementation of the exact centered formula, for M-form inputs and
// outputs, under every engine shape.
func TestBasisExtenderBitIdenticalAcrossEngines(t *testing.T) {
	for _, s := range bconvShapes {
		t.Run(s.name, func(t *testing.T) {
			from, to := bconvBases(t, s.logN, s.bitsFrom, s.nf, s.bitsTo, s.nt)
			xTrue := bconvBoundaryInputs(rand.New(rand.NewSource(5)), from, s.n)
			want := bconvOracle(from, to, xTrue)
			for _, cfg := range identityConfigs {
				e := NewEngine(cfg.workers)
				if cfg.block > 0 {
					e.SetBlockSize(cfg.block)
				}
				be, err := NewBasisExtender(from, to)
				if err != nil {
					t.Fatal(err)
				}
				be.SetEngine(e)
				assertConvertMatches(t, fmt.Sprintf("workers=%d block=%d", cfg.workers, cfg.block), be, xTrue, want)
				e.Close()
			}
		})
	}
}

// assertConvertMatches runs be.Convert on the M-form of xTrue and compares
// the outputs, taken back out of M-form, with want.
func assertConvertMatches(t *testing.T, label string, be *BasisExtender, xTrue, want [][]uint64) {
	t.Helper()
	out := make([][]uint64, len(be.to))
	for i := range out {
		out[i] = make([]uint64, len(xTrue[0]))
	}
	be.Convert(mformRows(be.from, xTrue), out)
	for i := range out {
		mr := be.to[i].MRed
		for k := range out[i] {
			if got := mr.IForm(out[i][k]); got != want[i][k] {
				t.Fatalf("%s: target limb %d coeff %d: got %d want %d", label, i, k, got, want[i][k])
			}
		}
	}
}

// TestBasisExtenderChunkedReduction covers bases too wide for one lazy
// 128-bit sum: with 17 source limbs just below 2^62 and targets as wide, 18
// unreduced terms can pass 2^128, so the dot product reduces part-way. No
// parameter set reaches this; the oracle is the same big.Int formula.
func TestBasisExtenderChunkedReduction(t *testing.T) {
	const logN, nf, nt = 4, 17, 2
	var primes []uint64
	for c := uint64(1)<<mod.MaxModulusBits - 2<<logN + 1; len(primes) < nf+nt; c -= 2 << logN {
		if mod.IsPrime(c) {
			primes = append(primes, c)
		}
	}
	r, err := NewRing(logN, primes)
	if err != nil {
		t.Fatal(err)
	}
	from, to := r.Moduli[:nf], r.Moduli[nf:]
	be, err := NewBasisExtender(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if be.chunk > nf {
		t.Fatalf("chunk = %d: the %d-term sum is never reduced part-way, the test lost its subject", be.chunk, nf+1)
	}
	xTrue := bconvBoundaryInputs(rand.New(rand.NewSource(6)), from, convTile+nf+5)
	assertConvertMatches(t, "17x62-bit", be, xTrue, bconvOracle(from, to, xTrue))
}
