package ring

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"bts/internal/mod"
)

// uniformTestRing returns a ring whose last prime sits just above 2^61, where
// about one candidate in eight is rejected, so the resample streams are
// exercised as well as the primary one.
func uniformTestRing(t testing.TB, logN int) *Ring {
	t.Helper()
	primes, err := mod.GenerateNTTPrimes(50, logN, 2)
	if err != nil {
		t.Fatal(err)
	}
	step := uint64(2) << logN
	q := uint64(1)<<61 + 1
	for !mod.IsPrime(q) {
		q += step
	}
	r, err := NewRing(logN, append(primes, q))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testSeed(k byte) (s [SeedSize]byte) {
	for i := range s {
		s[i] = byte(i)*7 + k
	}
	return s
}

// uniformOracleRow expands the first n coefficients of row i of tag's
// polynomial straight from the format's definition: one AES block per
// candidate pair, no stream object. It also reports how many coefficients
// took the resample stream.
func uniformOracleRow(seed [SeedSize]byte, tag uint32, i, n int, q uint64) (row []uint64, resampled int) {
	var key [16]byte
	for k := range key {
		key[k] = seed[k] ^ seed[16+k]
	}
	block, _ := aes.NewCipher(key[:])
	// L = 2^64 − (2^64 mod q), the largest multiple of q below 2^64.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	bq := new(big.Int).SetUint64(q)
	bL := new(big.Int).Sub(two64, new(big.Int).Mod(two64, bq))
	candidate := func(tag uint32, ctr uint64, w int) (uint64, bool) {
		var blk [16]byte
		binary.BigEndian.PutUint32(blk[0:], tag)
		binary.BigEndian.PutUint32(blk[4:], uint32(i))
		binary.BigEndian.PutUint64(blk[8:], ctr)
		block.Encrypt(blk[:], blk[:])
		v := new(big.Int).SetUint64(binary.LittleEndian.Uint64(blk[8*w:]))
		return new(big.Int).Mod(v, bq).Uint64(), v.Cmp(bL) < 0
	}
	row = make([]uint64, n)
	for c := 0; c*uniformChunk < n; c++ {
		k := 0 // next word of the chunk's resample stream
		for t := c * uniformChunk; t < min(n, (c+1)*uniformChunk); t++ {
			v, ok := candidate(tag, uint64(t/2), t%2)
			if !ok {
				resampled++
			}
			for ; !ok; k++ {
				v, ok = candidate(tag|1<<31, uint64(c)<<32+uint64(k/2), k%2)
			}
			row[t] = v
		}
	}
	return row, resampled
}

// TestUniformMatchesDefinition pins the expansion to the documented format,
// word for word, on every row of a ring whose widest prime forces resampling
// — on crypto/aes and, where the CPU has it, on keystreamVAES.
func TestUniformMatchesDefinition(t *testing.T) {
	r := uniformTestRing(t, 9)
	seed := testSeed(1)
	for _, vaes := range []bool{false, true} {
		if vaes && !useVAES {
			t.Log("no VAES on this CPU: keystreamVAES not checked")
			continue
		}
		p := r.NewPoly(len(r.Moduli))
		r.ExpandUniform(newUniformSource(seed, vaes).Poly(5), p, r.MaxLevel())
		resampled := 0
		for i, m := range r.Moduli {
			want, k := uniformOracleRow(seed, 5, i, r.N, m.Q)
			resampled += k
			for j, got := range p.Coeffs[i] {
				if got != want[j] {
					t.Fatalf("vaes=%v row %d coeff %d: %d, want %d", vaes, i, j, got, want[j])
				}
				if got >= m.Q {
					t.Fatalf("vaes=%v row %d coeff %d: %d not below q", vaes, i, j, got)
				}
			}
		}
		if resampled == 0 {
			t.Fatal("no coefficient took the resample path")
		}
		t.Logf("vaes=%v: %d of %d coefficients resampled", vaes, resampled, len(r.Moduli)*r.N)
	}
}

// TestUniformKeystreamPaths pins keystreamVAES and the key schedule it runs on
// to crypto/aes's CTR mode, over counters whose low word carries into its
// high bytes, and its rejection flag to a scan of the words, at limits that
// reject a word in 2^4, 2^8, 2^12 and none.
func TestUniformKeystreamPaths(t *testing.T) {
	if !useVAES {
		t.Skip("no VAES on this CPU")
	}
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 40; k++ {
		var seed [SeedSize]byte
		rng.Read(seed[:])
		hi, ctr := rng.Uint64(), uint64(rng.Uint32())
		if k%2 == 1 {
			ctr = 0xff_ffff_fff0 + uint64(k)
		}
		lim := ^uint64(0) >> (4 * (k % 4))
		if k%4 > 0 {
			lim = ^(^uint64(0) >> (4 * (k % 4)))
		}
		n := 32 * (1 + rng.Intn(uniformChunk/32))
		got, want := make([]uint64, n), make([]uint64, n)
		gotRej := newUniformSource(seed, true).keystream(got, hi, ctr, lim)
		wantRej := newUniformSource(seed, false).keystream(want, hi, ctr, lim)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %x counter %x‖%x, %d words: VAES keystream differs from crypto/aes", seed, hi, ctr, n)
		}
		scan := slices.ContainsFunc(want, func(v uint64) bool { return v > lim })
		if gotRej != scan || wantRej != scan {
			t.Fatalf("lim %x, %d words: rejected = %v (VAES), %v (crypto/aes), want %v", lim, n, gotRej, wantRej, scan)
		}
	}
}

// TestUniformWindowsAgree checks that expanding any window [lo, hi) of a row
// — odd starts, chunk-straddling ends — yields exactly those coefficients of
// the whole row, and that tags and seeds separate polynomials.
func TestUniformWindowsAgree(t *testing.T) {
	r := uniformTestRing(t, 10)
	src := NewUniformSource(testSeed(2))
	u := src.Poly(3)
	full := r.NewPoly(len(r.Moduli))
	r.ExpandUniform(u, full, r.MaxLevel())
	rng := rand.New(rand.NewSource(9))
	windows := [][2]int{{0, r.N}, {1, 2}, {1, uniformChunk + 3}, {uniformChunk - 1, uniformChunk + 1}, {r.N - 1, r.N}}
	for k := 0; k < 40; k++ {
		lo := rng.Intn(r.N)
		windows = append(windows, [2]int{lo, lo + 1 + rng.Intn(r.N-lo)})
	}
	for i := range r.Moduli {
		for _, w := range windows {
			if got := expandWindow(r, u, i, w[0], w[1]); !slices.Equal(got, full.Coeffs[i][w[0]:w[1]]) {
				t.Fatalf("row %d window %v differs from the whole row", i, w)
			}
		}
	}
	for _, other := range []UniformPoly{src.Poly(4), NewUniformSource(testSeed(3)).Poly(3)} {
		p := r.NewPoly(len(r.Moduli))
		r.ExpandUniform(other, p, r.MaxLevel())
		same := 0
		for j := range p.Coeffs[0] {
			if p.Coeffs[0][j] == full.Coeffs[0][j] {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("an independent polynomial shares %d of %d coefficients", same, r.N)
		}
	}
}

// expandWindow expands coefficients [lo, hi) of row i of u through
// eachUniformChunk alone, checking that the chunks arrive in order, and
// reduces the candidates to the coefficients.
func expandWindow(r *Ring, u UniformPoly, i, lo, hi int) []uint64 {
	var out []uint64
	r.eachUniformChunk(u, i, lo, hi, func(c0 int, v []uint64) {
		if c0 != lo+len(out) || len(v) > uniformChunk {
			panic(fmt.Sprintf("chunk of %d at %d, want start %d", len(v), c0, lo+len(out)))
		}
		for _, x := range v {
			out = append(out, x%r.Moduli[i].Q)
		}
	})
	return out
}

// TestUniformKernelsMatchMaterialized pins the seeded kernel to the stored
// ones on the materialized polynomial — MulKeyPair, overwriting and adding,
// without and with the automorphism table, against AutomorphismNTT then
// MulCoeffs / MulCoeffsAndAdd — and the expansion itself across (workers,
// block) engine shapes, serial as the reference.
func TestUniformKernelsMatchMaterialized(t *testing.T) {
	r := uniformTestRing(t, 11)
	lvl := r.MaxLevel()
	u := NewUniformSource(testSeed(4)).Poly(1)
	rng := rand.New(rand.NewSource(10))
	d, b, out0, out1 := r.NewPoly(lvl+1), r.NewPoly(lvl+1), r.NewPoly(lvl+1), r.NewPoly(lvl+1)
	r.SampleUniform(rng, d, lvl)
	r.SampleUniform(rng, b, lvl)
	r.SampleUniform(rng, out0, lvl)
	r.SampleUniform(rng, out1, lvl)
	a := r.NewPoly(lvl + 1)
	r.ExpandUniform(u, a, lvl)

	g := r.GaloisElement(3)
	want := func(gather, add bool) (*Poly, *Poly) {
		sd := r.CopyNew(d, lvl)
		if gather {
			r.AutomorphismNTT(d, g, sd, lvl)
		}
		w0, w1 := r.CopyNew(out0, lvl), r.CopyNew(out1, lvl)
		if add {
			r.MulCoeffsAndAdd(sd, b, w0, lvl)
			r.MulCoeffsAndAdd(sd, a, w1, lvl)
		} else {
			r.MulCoeffs(sd, b, w0, lvl)
			r.MulCoeffs(sd, a, w1, lvl)
		}
		return w0, w1
	}
	for _, shape := range [][2]int{{0, 0}, {2, 0}, {4, 64}, {7, 100}, {3, 1 << 20}} {
		e := NewEngine(shape[0])
		e.SetBlockSize(shape[1])
		r.SetEngine(e)
		name := fmt.Sprintf("workers=%d block=%d", shape[0], shape[1])

		got := r.NewPoly(lvl + 1)
		r.ExpandUniform(u, got, lvl)
		if !r.Equal(got, a, lvl) {
			t.Fatalf("%s: expansion differs from the serial one", name)
		}
		for _, gather := range []bool{false, true} {
			var table []int
			if gather {
				table = r.AutoIndexNTT(g)
			}
			for _, add := range []bool{false, true} {
				w0, w1 := want(gather, add)
				g0, g1 := r.CopyNew(out0, lvl), r.CopyNew(out1, lvl)
				r.MulKeyPair(d, table, b, u, g0, g1, lvl, add)
				if !r.Equal(g0, w0, lvl) {
					t.Fatalf("%s: MulKeyPair(gather=%v, add=%v) b half differs from the materialized products", name, gather, add)
				}
				if !r.Equal(g1, w1, lvl) {
					t.Fatalf("%s: MulKeyPair(gather=%v, add=%v) a half differs from the materialized products", name, gather, add)
				}
			}
		}
	}
}

// BenchmarkExpandUniform reports what the key-switch kernels pay per
// regenerated word — keystream, rejection check and the rare resample, no
// multiply — over one row at N=2^12 with a 50-bit prime, on one goroutine,
// with keystreamVAES (where the CPU has it) and with crypto/aes.
func BenchmarkExpandUniform(b *testing.B) {
	r := uniformTestRing(b, 12)
	r.SetEngine(nil)
	for _, vaes := range []bool{true, false} {
		name := "crypto-aes"
		if vaes {
			name = "vaes"
			if !useVAES {
				continue
			}
		}
		b.Run(name, func(b *testing.B) {
			u := newUniformSource(testSeed(5), vaes).Poly(0)
			b.SetBytes(int64(8 * r.N))
			for k := 0; k < b.N; k++ {
				r.eachUniformChunk(u, 0, 0, r.N, func(int, []uint64) {})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*r.N), "ns/word")
		})
	}
}
