package ckks

import (
	"math/big"
	"math/rand"
	"testing"

	"bts/internal/ring"
)

// Bit-exact big.Int oracles for the two basis changes that run on the
// key-switch's BConv: Rescale (a division with no special primes) and
// ModRaise (a conversion from the single prime q0).

// divisionChains returns fresh contexts over the LogN=10 test chain and over
// Table2Literal at N=2^12.
func divisionChains(t *testing.T) map[string]*Context {
	t.Helper()
	table2 := Table2Literal()
	table2.LogN = 12
	out := map[string]*Context{}
	for name, lit := range map[string]ParametersLiteral{
		"test_chain": {LogN: 10, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: 51, Dnum: 2, LogScale: 40, H: 64},
		"table2_n12": table2,
	} {
		ctx, err := NewContext(mustParams(t, lit))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = ctx
	}
	return out
}

// randomCiphertext returns a ciphertext at the given level whose two
// components are uniformly random NTT-domain polynomials.
func randomCiphertext(ctx *Context, rng *rand.Rand, level int) *Ciphertext {
	ct := ctx.NewCiphertext(level, ctx.Params.Scale)
	ctx.RingQ.SampleUniform(rng, ct.C0, level)
	ctx.RingQ.SampleUniform(rng, ct.C1, level)
	return ct
}

// coeffsBig returns the coefficients of rows [0..level] of p (NTT domain) as
// centered integers.
func coeffsBig(rq *ring.Ring, p *ring.Poly, level int) []*big.Int {
	c := rq.CopyNew(p, level)
	rq.INTT(c, level)
	return rq.PolyToBigCentered(c, level)
}

// bigToNTT reduces x modulo q_0..q_level into an NTT-domain polynomial.
func bigToNTT(rq *ring.Ring, x []*big.Int, level int) *ring.Poly {
	p := rq.NewPolyLevel(level)
	rq.SetBigCoeffs(p, x, level)
	rq.NTT(p, level)
	return p
}

// TestRescaleMatchesRoundingOracle checks Rescale word for word at every
// level of both chains against round(x/q_ℓ) = ⌊(x + (q_ℓ−1)/2)/q_ℓ⌋ computed
// in big integers (q_ℓ is odd, so there are no ties), reduced modulo
// Q_{ℓ−1}: the one-prime BConv is exact, so the division leaves no error.
func TestRescaleMatchesRoundingOracle(t *testing.T) {
	for name, ctx := range divisionChains(t) {
		rq := ctx.RingQ
		ev := NewEvaluator(ctx, NewEncoder(ctx), nil, nil)
		rng := rand.New(rand.NewSource(8101))
		for lvl := ctx.Params.MaxLevel(); lvl >= 1; lvl-- {
			ct := randomCiphertext(ctx, rng, lvl)
			q := new(big.Int).SetUint64(rq.Moduli[lvl].Q)
			half := new(big.Int).Rsh(q, 1)
			var want [2]*ring.Poly
			for k, p := range []*ring.Poly{ct.C0, ct.C1} {
				x := coeffsBig(rq, p, lvl)
				for _, v := range x {
					v.Div(v.Add(v, half), q)
				}
				want[k] = bigToNTT(rq, x, lvl-1)
			}
			got := ev.Rescale(ct)
			if got.Level != lvl-1 || got.Scale != ct.Scale/float64(rq.Moduli[lvl].Q) {
				t.Fatalf("%s level %d: Rescale gave level %d scale %g", name, lvl, got.Level, got.Scale)
			}
			if !rq.Equal(got.C0, want[0], lvl-1) || !rq.Equal(got.C1, want[1], lvl-1) {
				t.Fatalf("%s level %d: Rescale differs from round(x/q_%d)", name, lvl, lvl)
			}
		}
	}
}

// TestDivRoundBitIdenticalAcrossEngines checks the division behind Rescale
// and ModDown produces identical words under every engine shape (the serial
// result is the reference): at every level of the test chain, Rescale (no
// special primes) and the key-switch's division by P_ℓ with and without the
// last q-prime folded in.
func TestDivRoundBitIdenticalAcrossEngines(t *testing.T) {
	lit := ParametersLiteral{LogN: 10, LogQ: []int{50, 40, 40, 40, 40, 40}, LogP: 51, Dnum: 2, LogScale: 40, H: 64}
	var ref []*ring.Poly
	for _, cfg := range []struct{ workers, block int }{
		{0, 0},       // serial, default blocks
		{1, 64},      // single worker, forced small blocks
		{3, 48},      // odd worker count, ragged blocks
		{7, 1 << 20}, // wide pool, limb-only dispatch
	} {
		ctx, err := NewContext(mustParams(t, lit))
		if err != nil {
			t.Fatal(err)
		}
		ctx.SetWorkers(cfg.workers)
		if cfg.block > 0 {
			ctx.RingQ.Exec().SetBlockSize(cfg.block)
		}
		rq, rp := ctx.RingQ, ctx.RingP
		ev := NewEvaluator(ctx, NewEncoder(ctx), nil, nil)
		rng := rand.New(rand.NewSource(11))
		var got []*ring.Poly
		for lvl := ctx.Params.MaxLevel(); lvl >= 1; lvl-- {
			ct := ev.Rescale(randomCiphertext(ctx, rng, lvl))
			got = append(got, ct.C0, ct.C1)
			k := ctx.special[lvl].k
			for drop := 0; drop <= 1; drop++ {
				accQ, accP := rq.NewPolyLevel(lvl), rp.NewPolyLevel(k-1)
				rq.SampleUniform(rng, accQ, lvl)
				rp.SampleUniform(rng, accP, k-1)
				out := rq.NewPolyLevel(lvl - drop)
				ev.divRound(accQ, accP, lvl, drop, k, out)
				got = append(got, out)
			}
		}
		ctx.Close()
		if ref == nil {
			ref = got
			continue
		}
		for i, p := range got {
			if !rq.Equal(p, ref[i], p.Levels()) {
				t.Fatalf("workers=%d block=%d: division output %d diverges from the serial engine",
					cfg.workers, cfg.block, i)
			}
		}
	}
}

// TestModRaiseMatchesLiftOracle checks ModRaise word for word on both chains
// against the centered lift of each q0 residue into (−q0/2, q0/2], computed in
// big integers and reduced modulo every q_i of the chain.
func TestModRaiseMatchesLiftOracle(t *testing.T) {
	for name, ctx := range divisionChains(t) {
		rq := ctx.RingQ
		L := ctx.Params.MaxLevel()
		ev := NewEvaluator(ctx, NewEncoder(ctx), nil, nil)
		ct := randomCiphertext(ctx, rand.New(rand.NewSource(8102)), 0)
		got := ev.modRaise(ct)
		if got.Level != L || got.Scale != ct.Scale {
			t.Fatalf("%s: ModRaise gave level %d scale %g, want %d and %g", name, got.Level, got.Scale, L, ct.Scale)
		}
		for k, p := range []*ring.Poly{ct.C0, ct.C1} {
			want := bigToNTT(rq, coeffsBig(rq, p, 0), L)
			if !rq.Equal([]*ring.Poly{got.C0, got.C1}[k], want, L) {
				t.Fatalf("%s: ModRaise component %d differs from the centered lift of its q0 row", name, k)
			}
		}
	}
}
