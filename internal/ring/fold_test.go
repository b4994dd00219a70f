package ring

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"bts/internal/mod"
)

// foldCase is an op list over a pool of operands and accumulators, given by
// index so the same list can run on two copies of the pool.
type foldCase struct {
	name  string
	ops   [][3]int // operand A, operand B, accumulator
	first []bool
}

// foldCases returns the op lists TestFoldMatchesSequentialMACs runs over
// nOps operands and nAcc accumulators: the transform's shapes (several ops
// per accumulator, First only on the first; one operand shared by three
// accumulators), a square (B = A), an accumulator no op overwrites, and a
// random list.
func foldCases(rng *rand.Rand, nOps, nAcc int) []foldCase {
	cases := []foldCase{
		{"several per acc", [][3]int{{0, 1, 0}, {2, 3, 0}, {4, 5, 0}, {1, 2, 1}, {3, 4, 1}}, []bool{true, false, false, true, false}},
		{"shared A", [][3]int{{0, 1, 0}, {0, 2, 1}, {0, 3, 2}, {4, 1, 0}, {4, 2, 1}, {4, 3, 2}}, []bool{true, true, true, false, false, false}},
		{"B = A", [][3]int{{3, 3, 0}, {5, 5, 0}, {1, 2, 1}}, []bool{true, false, true}},
		{"no first", [][3]int{{0, 1, 2}, {2, 3, 2}}, []bool{false, false}},
	}
	random := foldCase{name: "random"}
	seen := map[int]bool{}
	for range 40 {
		acc := rng.Intn(nAcc)
		random.ops = append(random.ops, [3]int{rng.Intn(nOps), rng.Intn(nOps), acc})
		random.first = append(random.first, !seen[acc] && rng.Intn(4) != 0)
		seen[acc] = true
	}
	return append(cases, random)
}

// TestFoldMatchesSequentialMACs pins Fold word for word to the same op list
// run one full-row MulCoeffs / MulCoeffsAndAdd call at a time, on both
// tiers, at 1–3 workers, on rows shorter than a tile (logN 9), one tile or
// several, and at levels with fewer rows than workers, where RunBlocks
// shards a row into blocks whose width is no multiple of the tile.
func TestFoldMatchesSequentialMACs(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		for _, logN := range []int{9, 10, 12, 13} {
			primes, err := mod.GenerateNTTPrimes(60, logN, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				r, err := NewRing(logN, primes)
				if err != nil {
					t.Fatal(err)
				}
				r.SetEngine(NewEngine(workers))
				rng := rand.New(rand.NewSource(int64(logN*10 + workers)))
				const nOps, nAcc = 6, 3
				maxLvl := len(primes) - 1
				operands := make([]*Poly, nOps)
				for k := range operands {
					operands[k] = r.NewPolyLevel(maxLvl)
					r.SampleUniform(rng, operands[k], maxLvl)
				}
				for _, c := range foldCases(rng, nOps, nAcc) {
					for _, lvl := range []int{0, maxLvl} {
						got, want := make([]*Poly, nAcc), make([]*Poly, nAcc)
						for k := range got {
							got[k] = r.NewPolyLevel(maxLvl)
							r.SampleUniform(rng, got[k], maxLvl)
							want[k] = r.CopyNew(got[k], maxLvl)
						}
						ops := make([]FoldOp, len(c.ops))
						for k, o := range c.ops {
							a, b := operands[o[0]], operands[o[1]]
							ops[k] = FoldOp{A: a, B: b, Acc: got[o[2]], First: c.first[k]}
							if c.first[k] {
								r.MulCoeffs(a, b, want[o[2]], lvl)
							} else {
								r.MulCoeffsAndAdd(a, b, want[o[2]], lvl)
							}
						}
						r.Fold(ops, lvl)
						for k := range got {
							// Rows above lvl are untouched on both sides.
							if !r.Equal(got[k], want[k], maxLvl) {
								t.Fatalf("logN %d, %d workers, level %d, %s: accumulator %d differs from the sequential MACs",
									logN, workers, lvl, c.name, k)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkFold times the linear transform's fold shape — 31 babies, each
// read by four giant steps' accumulators, two ops per baby and giant — as
// sequential full-poly calls and as one Fold, through an engine of
// GOMAXPROCS workers (pass -cpu), over 60-bit rows: 12 rows at N = 2^12, 8 at 2^14 (the
// nnlayer transform's shape) and one 1 MiB row at 2^17. It reports ns per
// word-product.
func BenchmarkFold(b *testing.B) {
	const babies, giants = 31, 4
	for _, c := range []struct{ logN, rows int }{{12, 12}, {14, 8}, {17, 1}} {
		primes, err := mod.GenerateNTTPrimes(60, c.logN, c.rows)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRing(c.logN, primes)
		if err != nil {
			b.Fatal(err)
		}
		r.SetEngine(NewEngine(runtime.GOMAXPROCS(0)))
		lvl := c.rows - 1
		rng := rand.New(rand.NewSource(42))
		poly := func() *Poly {
			p := r.NewPolyLevel(lvl)
			r.SampleUniform(rng, p, lvl)
			return p
		}
		var baby [babies][2]*Poly
		var acc [giants][2]*Poly
		for k := range baby {
			baby[k] = [2]*Poly{poly(), poly()}
		}
		for g := range acc {
			acc[g] = [2]*Poly{poly(), poly()}
		}
		var ops []FoldOp
		for k := range baby {
			for g := range acc {
				d := poly()
				for c := range 2 {
					ops = append(ops, FoldOp{A: d, B: baby[k][c], Acc: acc[g][c], First: k == 0})
				}
			}
		}
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)*c.rows*r.N), "ns/word")
		}
		b.Run(fmt.Sprintf("sequential/logN=%d", c.logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, op := range ops {
					if op.First {
						r.MulCoeffs(op.A, op.B, op.Acc, lvl)
					} else {
						r.MulCoeffsAndAdd(op.A, op.B, op.Acc, lvl)
					}
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("fold/logN=%d", c.logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Fold(ops, lvl)
			}
			report(b)
		})
	}
}
