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

				// Lazy 128-bit MAC chain through the identity table: two
				// accumulations then one fused fold+REDC reduction, against
				// two reduced Barrett MACs.
				identity := r.AutoIndexNTT(1)
				acc := r.GetAcc(level)
				r.MulGatherAndAddLazy(aM, identity, bM, acc, level)
				r.MulGatherAndAddLazy(bM, identity, bM, acc, level)
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
				r.MulGatherAndAddLazy(aM, identity, bM, acc, level)
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

// bconvMaxDigits returns n coefficients over from whose stage-1 digit is
// q_j - 1 on every limb: a whole tile, every lane of every 8-wide group, at
// the accumulators' maximum — every product and the full nf·[-Q] correction.
func bconvMaxDigits(from []*Modulus, n int) [][]uint64 {
	qhat := bconvQhat(from)
	x := make([][]uint64, len(from))
	for j, m := range from {
		q := m.Q
		qh := new(big.Int).Mod(qhat[j], new(big.Int).SetUint64(q)).Uint64()
		x[j] = make([]uint64, n)
		for k := range x[j] {
			x[j][k] = mod.Mul(q-1, qh, q)
		}
	}
	return x
}

// bconvZeroOutputs returns n ≥ len(to) uniform coefficients over from,
// except that coefficient i's digits are drawn so that the exact centered
// sum Σ_j f(y_j)·(Q/q_j) is a nonzero multiple of p_i: its output on target
// limb i is 0. A Montgomery reduction of such a sum lands on exactly p_i,
// so these are the words a missing final subtraction leaves non-canonical.
func bconvZeroOutputs(rng *rand.Rand, from, to []*Modulus, n int) [][]uint64 {
	qhat := bconvQhat(from)
	x := make([][]uint64, len(from))
	for j, m := range from {
		x[j] = make([]uint64, n)
		for k := range x[j] {
			x[j][k] = uniformUint64(rng, m.Q)
		}
	}
	q0 := new(big.Int).SetUint64(from[0].Q)
	half := new(big.Int).Rsh(q0, 1)
	for i, mt := range to {
		p := new(big.Int).SetUint64(mt.Q)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(qhat[0], p), p)
		y := make([]*big.Int, len(from))
		for {
			// Digits y_1.. at random; f(y_0) must be ≡ -(Σ_{j≥1} f(y_j)·Q/q_j)
			// (Q/q_0)^-1 mod p_i and centered mod q_0, which a random draw
			// allows often enough.
			sum := new(big.Int)
			for j := 1; j < len(from); j++ {
				qj := new(big.Int).SetUint64(from[j].Q)
				y[j] = new(big.Int).SetUint64(uniformUint64(rng, from[j].Q))
				f := new(big.Int).Set(y[j])
				if y[j].Uint64() > from[j].Q>>1 {
					f.Sub(f, qj)
				}
				sum.Add(sum, f.Mul(f, qhat[j]))
			}
			r := new(big.Int).Neg(sum)
			r.Mul(r, inv).Mod(r, p)
			if r.Cmp(half) > 0 {
				r.Sub(r, p) // the other representative, negative
				if r.CmpAbs(half) > 0 {
					continue
				}
				r.Add(r, q0)
			}
			y[0] = r
			break
		}
		for j, m := range from {
			qh := new(big.Int).Mod(qhat[j], new(big.Int).SetUint64(m.Q)).Uint64()
			x[j][i] = mod.Mul(y[j].Uint64(), qh, m.Q)
		}
	}
	return x
}

// bconvInputs are the true-residue inputs every BConv identity test
// converts: the boundary digits of bconvBoundaryInputs, the all-(q-1)
// digits of bconvMaxDigits and the zero outputs of bconvZeroOutputs.
func bconvInputs(seed int64, from, to []*Modulus, n int) []struct {
	name string
	x    [][]uint64
} {
	rng := rand.New(rand.NewSource(seed))
	return []struct {
		name string
		x    [][]uint64
	}{
		{"boundary", bconvBoundaryInputs(rng, from, n)},
		{"max-digits", bconvMaxDigits(from, n)},
		{"zero-outputs", bconvZeroOutputs(rng, from, to, n)},
	}
}

// bconvPaths are the two BConv implementations every BConv identity test
// runs: the AVX-512 IFMA kernels and the Go convertTile.
var bconvPaths = []string{"ifma", "go"}

// extenderOn builds the from → to extender on the named path: "go" forces
// every kernel to Go for the rest of t (forceGo), and "ifma" skips, saying
// why, where the CPU lacks AVX-512 IFMA, so a green run there does not pass
// for its coverage.
func extenderOn(t testing.TB, from, to []*Modulus, path string) *BasisExtender {
	t.Helper()
	if path == "go" {
		forceGo(t)
	}
	be, err := NewBasisExtender(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if path == "ifma" && be.lanes == nil {
		t.Skip("no AVX-512 IFMA on this CPU: bconvDigits and bconvLanes not checked")
	}
	return be
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
// ModUp, the three workload shapes — INS-1's key-switch (28 source limbs
// around 2^60, 28 target limbs around 2^61), prim's 3→9 and nnlayer's 3→12
// — and a 13-coefficient row, one 8-lane group and a 5-lane tail. Every
// row length but the first leaves a lane group partial, and the longer ones
// a partial last tile.
var bconvShapes = []struct {
	name                       string
	logN, bitsFrom, nf, bitsTo int
	nt, n                      int
}{
	{"3to2", 5, 45, 3, 46, 2, 1 << 5},
	{"ins1_28to28", 5, 60, 28, 61, 28, convTile + 44},
	{"prim_3to9", 5, 50, 3, 60, 9, 2*convTile + 5},
	{"nnlayer_3to12", 5, 45, 3, 55, 12, convTile + 19},
	{"ragged_5to4", 5, 40, 5, 50, 4, 13},
}

// TestBasisExtenderBitIdenticalAcrossEngines pins BConv on both paths to a serial big.Int implementation of the exact centered formula,
// for M-form inputs and outputs, under every engine shape.
func TestBasisExtenderBitIdenticalAcrossEngines(t *testing.T) {
	for _, s := range bconvShapes {
		t.Run(s.name, func(t *testing.T) {
			from, to := bconvBases(t, s.logN, s.bitsFrom, s.nf, s.bitsTo, s.nt)
			inputs := bconvInputs(5, from, to, s.n)
			wants := make([][][]uint64, len(inputs))
			for k, in := range inputs {
				wants[k] = bconvOracle(from, to, in.x)
			}
			for _, path := range bconvPaths {
				t.Run(path, func(t *testing.T) {
					for _, cfg := range identityConfigs {
						e := NewEngine(cfg.workers)
						if cfg.block > 0 {
							e.SetBlockSize(cfg.block)
						}
						be := extenderOn(t, from, to, path)
						be.SetEngine(e)
						for k, in := range inputs {
							assertConvertMatches(t, fmt.Sprintf("%s workers=%d block=%d", in.name, cfg.workers, cfg.block), be, in.x, wants[k])
						}
					}
					t.Logf("%s path: %d→%d limbs, n=%d, matches the big.Int oracle", path, s.nf, s.nt, s.n)
				})
			}
		})
	}
}

// assertConvertMatches runs be.Convert on the M-form of xTrue and compares
// the outputs word for word with the M-form of want, so a right residue in
// a non-canonical word fails too. Each output row is followed by guard words
// that must come back untouched.
func assertConvertMatches(t *testing.T, label string, be *BasisExtender, xTrue, want [][]uint64) {
	t.Helper()
	const guard, sentinel = 8, 0x5a5a5a5a5a5a5a5a
	n := len(xTrue[0])
	out := make([][]uint64, len(be.to))
	for i := range out {
		row := make([]uint64, n+guard)
		for k := range row {
			row[k] = sentinel
		}
		out[i] = row[:n]
	}
	be.Convert(mformRows(be.from, xTrue), out)
	for i := range out {
		mr := be.to[i].MRed
		for k, v := range out[i][n : n+guard] {
			if v != sentinel {
				t.Fatalf("%s: target limb %d: Convert wrote word %d past the row's end", label, i, n+k)
			}
		}
		for k := range out[i] {
			if got, w := out[i][k], mr.MForm(want[i][k]); got != w {
				t.Fatalf("%s: target limb %d coeff %d: got word %d want %d (residue %d)", label, i, k, got, w, want[i][k])
			}
		}
	}
}

// TestBasisExtenderChunkedReduction covers bases too wide for one lazy
// 128-bit sum: with 17 or 40 source limbs just below 2^62 and targets as
// wide, 18 unreduced terms can pass 2^128, so the Go dot product reduces
// part-way; the IFMA kernel needs no such split. No parameter set reaches
// this; the oracle is the same big.Int formula.
func TestBasisExtenderChunkedReduction(t *testing.T) {
	const logN = 4
	for _, s := range []struct{ nf, nt int }{{17, 2}, {40, 3}} {
		var primes []uint64
		for c := uint64(1)<<mod.MaxModulusBits - 2<<logN + 1; len(primes) < s.nf+s.nt; c -= 2 << logN {
			if mod.IsPrime(c) {
				primes = append(primes, c)
			}
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			t.Fatal(err)
		}
		from, to := r.Moduli[:s.nf], r.Moduli[s.nf:]
		inputs := bconvInputs(6, from, to, convTile+s.nf+5)
		for _, path := range bconvPaths {
			t.Run(fmt.Sprintf("%dx62-bit/%s", s.nf, path), func(t *testing.T) {
				be := extenderOn(t, from, to, path)
				if be.chunk > s.nf {
					t.Fatalf("chunk = %d: the %d-term sum is never reduced part-way, the test lost its subject", be.chunk, s.nf+1)
				}
				for _, in := range inputs {
					assertConvertMatches(t, in.name, be, in.x, bconvOracle(from, to, in.x))
				}
				t.Logf("%s path: %d terms (chunk %d) match the big.Int oracle", path, s.nf+1, be.chunk)
			})
		}
	}
}
