package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"bts/internal/mod"
)

// elemArgs are the operands of one element-wise row call: the rows in the
// kernel's parameter order, a gather's source row and index table, the
// modulus and a Shoup constant w with its companion ws.
type elemArgs struct {
	rows  [][]uint64
	src   []uint64
	table []int
	m     *Modulus
	w, ws uint64
}

// elemRow is one element-wise row kernel on both tiers. kinds names each of
// its rows: 'x' an operand, 'o' an output (read first by the accumulating
// kernels), 'l' and 'h' the low and high words of 128-bit sums. row calls
// the kernel as the package does (the lanes on the 8-word-aligned prefix
// where useLanes is set, the Go row on the tail), goRow the Go row alone.
// gather kernels read their first operand from src through table.
type elemRow struct {
	name       string
	kinds      string
	gather     bool
	row, goRow func(e elemArgs)
}

var elemRows = []elemRow{
	{"mulRow", "xxo", false,
		func(e elemArgs) { mulRow(e.rows[0], e.rows[1], e.rows[2], e.m.MRed) },
		func(e elemArgs) { mulRowGo(e.rows[0], e.rows[1], e.rows[2], e.m.MRed) }},
	{"mulAddRow", "xxo", false,
		func(e elemArgs) { mulAddRow(e.rows[0], e.rows[1], e.rows[2], e.m.MRed) },
		func(e elemArgs) { mulAddRowGo(e.rows[0], e.rows[1], e.rows[2], e.m.MRed) }},
	{"gatherMulRow", "xo", true,
		func(e elemArgs) { gatherMulRow(e.src, e.table, e.rows[0], e.rows[1], e.m.MRed) },
		func(e elemArgs) { gatherMulRowGo(e.src, e.table, e.rows[0], e.rows[1], e.m.MRed) }},
	{"gatherMulAddRow", "xo", true,
		func(e elemArgs) { gatherMulAddRow(e.src, e.table, e.rows[0], e.rows[1], e.m.MRed) },
		func(e elemArgs) { gatherMulAddRowGo(e.src, e.table, e.rows[0], e.rows[1], e.m.MRed) }},
	{"mulShoupRow", "xo", false,
		func(e elemArgs) { mulShoupRow(e.rows[0], e.rows[1], e.w, e.ws, e.m.Q) },
		func(e elemArgs) { mulShoupRowGo(e.rows[0], e.rows[1], e.w, e.ws, e.m.Q) }},
	{"mulShoupAddRow", "xo", false,
		func(e elemArgs) { mulShoupAddRow(e.rows[0], e.rows[1], e.w, e.ws, e.m.Q) },
		func(e elemArgs) { mulShoupAddRowGo(e.rows[0], e.rows[1], e.w, e.ws, e.m.Q) }},
	{"subMulShoupRow", "xxo", false,
		func(e elemArgs) { subMulShoupRow(e.rows[0], e.rows[1], e.rows[2], e.w, e.ws, e.m.Q) },
		func(e elemArgs) { subMulShoupRowGo(e.rows[0], e.rows[1], e.rows[2], e.w, e.ws, e.m.Q) }},
	{"reduceAccRow", "lho", false,
		func(e elemArgs) { reduceAccRow(e.rows[0], e.rows[1], e.rows[2], e.m) },
		func(e elemArgs) { reduceAccRowGo(e.rows[0], e.rows[1], e.rows[2], e.m) }},
}

// TestElemLanesMatchGo pins every element-wise row to its Go row, word for
// word, on both tiers: q of 50, 60 and 61 bits and the largest NTT prime
// below 2^62; rows of 0 to 40 words and one of 259, so the Go tail runs
// after the lanes at every remainder; and four fills — residues, all q − 1
// (and the 128-bit sum 2^128 − 1, the largest reduceAccRow folds), the
// key-switch MAC's (a residue times raw key candidates up to 2^64 − 1, sum
// words a few short of 2^64) and raw 64-bit words everywhere, past the Go
// rows' own contracts, where both tiers still run the same exact 64-bit
// arithmetic (mod.Sub for every 64-bit a and b among it). Guard words past
// every row must come back untouched.
func TestElemLanesMatchGo(t *testing.T) {
	const logN, guard, sentinel = 6, 8, 0x5a5a5a5a5a5a5a5a
	primes := []uint64{largestNTTPrimeBelow62(logN)}
	for _, bits := range []int{50, 60, 61} {
		ps, err := mod.GenerateNTTPrimes(bits, logN, 1)
		if err != nil {
			t.Fatal(err)
		}
		primes = append(primes, ps...)
	}
	lengths := make([]int, 0, 42)
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 259)
	onPaths(t, func(t *testing.T) {
		for _, q := range primes {
			r, err := NewRing(logN, []uint64{q})
			if err != nil {
				t.Fatal(err)
			}
			m := r.Moduli[0]
			rng := rand.New(rand.NewSource(int64(q)))
			raw := func() uint64 {
				if rng.Intn(5) == 0 {
					return ^uint64(0)
				}
				return rng.Uint64()
			}
			fills := []struct {
				name string
				word func(kind byte, first bool) uint64
			}{
				{"residues", func(kind byte, _ bool) uint64 {
					if kind == 'l' || kind == 'h' {
						return rng.Uint64()
					}
					return rng.Uint64() % q
				}},
				{"top", func(kind byte, _ bool) uint64 {
					if kind == 'l' || kind == 'h' {
						return ^uint64(0)
					}
					return q - 1
				}},
				{"key", func(kind byte, first bool) uint64 {
					switch {
					case kind == 'l' || kind == 'h':
						return ^uint64(0) - uint64(rng.Intn(4))
					case kind == 'x' && !first:
						return raw()
					}
					return rng.Uint64() % q
				}},
				{"raw", func(byte, bool) uint64 { return raw() }},
			}
			for _, k := range elemRows {
				for _, f := range fills {
					for _, w := range []uint64{q - 1, rng.Uint64() % q} {
						for _, n := range lengths {
							rows := func() [][]uint64 { return make([][]uint64, len(k.kinds)) }
							want, got := rows(), rows()
							for i := range k.kinds {
								first := i == 0 && !k.gather
								want[i] = make([]uint64, n+guard)
								for j := range want[i] {
									want[i][j] = sentinel
									if j < n {
										want[i][j] = f.word(k.kinds[i], first)
									}
								}
								got[i] = append([]uint64{}, want[i]...)
							}
							src := make([]uint64, r.N)
							for j := range src {
								src[j] = f.word('x', true)
							}
							table := make([]int, n)
							for j := range table {
								table[j] = rng.Intn(r.N)
							}
							args := elemArgs{src: src, table: table, m: m, w: w, ws: mod.ShoupPrecomp(w, q)}
							args.rows = want
							for i := range want {
								want[i] = want[i][:n]
							}
							k.goRow(args)
							args.rows = got
							for i := range got {
								got[i] = got[i][:n]
							}
							k.row(args)
							for i := range got {
								g, e := got[i][:n+guard], want[i][:n+guard]
								for j := range g {
									if j >= n && g[j] != sentinel {
										t.Fatalf("q=%d (%d bits) %s, %s fill, n=%d: guard word %d of row %d overwritten with %d",
											q, bits.Len64(q), k.name, f.name, n, j, i, g[j])
									}
									if g[j] != e[j] {
										t.Fatalf("q=%d (%d bits) %s, %s fill, n=%d: row %d word %d is %d, the Go row gives %d",
											q, bits.Len64(q), k.name, f.name, n, i, j, g[j], e[j])
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestAutoIndexNTTIsPermutation checks the property the lane gathers rely
// on in place of a per-word bounds check: for every odd g < 2N, the index
// table of X -> X^g is a permutation of [0, N).
func TestAutoIndexNTTIsPermutation(t *testing.T) {
	for logN := 5; logN <= 12; logN++ {
		r := testRing(t, logN, 1)
		seen := make([]int, r.N)
		for g := uint64(1); g < uint64(2*r.N); g += 2 {
			table := r.AutoIndexNTT(g)
			if len(table) != r.N {
				t.Fatalf("logN=%d g=%d: table of %d entries, want %d", logN, g, len(table), r.N)
			}
			for j, e := range table {
				if e < 0 || e >= r.N || seen[e] == int(g) {
					t.Fatalf("logN=%d g=%d: entry %d = %d is out of [0, N) or repeated", logN, g, j, e)
				}
				seen[e] = int(g)
			}
			delete(r.autoCache, g) // the cache would hold 2^22 words at logN 12
		}
	}
}

// TestMulKeyPairRejectsShortGather checks that MulKeyPair refuses an index
// table that is not N entries long, and a row of d shorter than N, with a
// panic before any row runs: the outputs stay untouched.
func TestMulKeyPairRejectsShortGather(t *testing.T) {
	r := testRing(t, 6, 2)
	lvl := r.MaxLevel()
	rng := rand.New(rand.NewSource(7))
	d, b, out0, out1 := r.NewPoly(lvl+1), r.NewPoly(lvl+1), r.NewPoly(lvl+1), r.NewPoly(lvl+1)
	for _, p := range []*Poly{d, b, out0, out1} {
		r.SampleUniform(rng, p, lvl)
	}
	u := NewUniformSource(testSeed(6)).Poly(0)
	full := r.AutoIndexNTT(r.GaloisElement(1))
	short := r.CopyNew(d, lvl)
	short.Coeffs[lvl] = short.Coeffs[lvl][:r.N-1]
	for _, c := range []struct {
		name  string
		d     *Poly
		table []int
		want  string
	}{
		{"short table", d, full[:r.N-1], "index table"},
		{"long table", d, append(append([]int{}, full...), 0), "index table"},
		{"short row", short, full, "gathers from row"},
	} {
		t.Run(c.name, func(t *testing.T) {
			w0, w1 := r.CopyNew(out0, lvl), r.CopyNew(out1, lvl)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, c.want) {
						t.Fatalf("MulKeyPair: recovered %q, want a panic naming the %s", msg, c.want)
					}
				}()
				r.MulKeyPair(c.d, c.table, b, u, w0, w1, lvl, true)
			}()
			if !r.Equal(w0, out0, lvl) || !r.Equal(w1, out1, lvl) {
				t.Fatal("MulKeyPair wrote an output before panicking")
			}
		})
	}
}

// BenchmarkElemKernel times every element-wise row on both tiers over one
// row of N = 2^12 and 2^17 words under a 60-bit prime — serial, no
// dispatch — and reports ns per word. The gather rows read through a real
// automorphism table.
func BenchmarkElemKernel(b *testing.B) {
	for _, logN := range []int{12, 17} {
		primes, err := mod.GenerateNTTPrimes(60, logN, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(logN, primes)
		if err != nil {
			b.Fatal(err)
		}
		q := r.Moduli[0].Q
		rng := rand.New(rand.NewSource(42))
		row := func() []uint64 {
			v := make([]uint64, r.N)
			for j := range v {
				v[j] = rng.Uint64() % q
			}
			return v
		}
		w := rng.Uint64() % q
		args := elemArgs{src: row(), table: r.AutoIndexNTT(r.GaloisElement(1)), m: r.Moduli[0], w: w, ws: mod.ShoupPrecomp(w, q)}
		for range 4 {
			args.rows = append(args.rows, row())
		}
		for _, k := range elemRows {
			for _, tier := range []string{"go", "lanes"} {
				b.Run(fmt.Sprintf("%s/%s/logN=%d", k.name, tier, logN), func(b *testing.B) {
					skipWithoutLanes(b, tier)
					f := k.goRow
					if tier == "lanes" {
						f = k.row
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f(args)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.N), "ns/word")
				})
			}
		}
	}
}
