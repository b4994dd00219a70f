package ckks

import (
	"fmt"
	"math/rand"
	"testing"

	"bts/internal/mod"
	"bts/internal/ring"
)

// materializedA expands every a_j of swk over the full Q and P chains: the
// stored halves the seed replaces.
func materializedA(ctx *Context, swk *SwitchingKey) []PolyQP {
	rq, rp := ctx.RingQ, ctx.RingP
	src := ring.NewUniformSource(swk.Seed)
	a := make([]PolyQP, len(swk.B))
	for j := range a {
		uQ, uP := keyA(src, j)
		a[j] = PolyQP{Q: rq.NewPoly(len(rq.Moduli)), P: rp.NewPoly(len(rp.Moduli))}
		rq.ExpandUniform(uQ, a[j].Q, rq.MaxLevel())
		rp.ExpandUniform(uP, a[j].P, rp.MaxLevel())
	}
	return a
}

// oracleMAC is the key-switch multiply-accumulate over materialized keys,
// written the slow, obvious way: each decomposition slice is permuted into a
// copy by σ_g (g = 1: no permutation) and multiplied with b_j and with the
// expanded a_j by the reduced kernels. It returns the four extended-basis
// accumulators keySwitchMAC overwrites.
func oracleMAC(ctx *Context, g uint64, hd *HoistedDecomposition, swk *SwitchingKey) (accQ0, accP0, accQ1, accP1 *ring.Poly) {
	rq, rp := ctx.RingQ, ctx.RingP
	lvl, lp := hd.level, ctx.special[hd.level].k-1
	a := materializedA(ctx, swk)
	accQ0, accQ1 = rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
	accP0, accP1 = rp.NewPolyLevel(lp), rp.NewPolyLevel(lp)
	sq, sp := rq.NewPolyLevel(lvl), rp.NewPolyLevel(lp)
	for j := 0; j < hd.beta; j++ {
		rq.CopyLevel(sq, hd.q[j], lvl)
		rp.CopyLevel(sp, hd.p[j], lp)
		if g != 1 {
			rq.AutomorphismNTT(hd.q[j], g, sq, lvl)
			rp.AutomorphismNTT(hd.p[j], g, sp, lp)
		}
		macAdd(rq, sq, swk.B[j].Q, accQ0, lvl)
		macAdd(rp, sp, swk.B[j].P, accP0, lp)
		macAdd(rq, sq, a[j].Q, accQ1, lvl)
		macAdd(rp, sp, a[j].P, accP1, lp)
	}
	return accQ0, accP0, accQ1, accP1
}

// TestSeededKeyIsConsistent checks the seeded a_j is the one each key was
// generated with: b_j + a_j·s − [P]_{q_i}·s'·1_{group j} must be the small
// error e_j, on every row of both bases, for the relinearization key and a
// rotation key, at dnum 1 and 3.
func TestSeededKeyIsConsistent(t *testing.T) {
	for _, dnum := range []int{1, 3} {
		s := newTestSetup(t, dnum, []int{1})
		ctx := s.ctx
		rq, rp := ctx.RingQ, ctx.RingP
		lq, lp := rq.MaxLevel(), rp.MaxLevel()
		s2 := rq.NewPolyLevel(lq)
		rq.MulCoeffs(s.sk.Value.Q, s.sk.Value.Q, s2, lq)
		g := rq.GaloisElement(1)
		sRot := rq.NewPolyLevel(lq)
		rq.AutomorphismNTT(s.sk.Value.Q, g, sRot, lq)
		for name, k := range map[string]struct {
			swk    *SwitchingKey
			sPrime *ring.Poly
		}{"relin": {s.rlk, s2}, "rot1": {s.eval.rotationKey(g), sRot}} {
			if len(k.swk.B) != dnum {
				t.Fatalf("dnum=%d %s: %d slices", dnum, name, len(k.swk.B))
			}
			a := materializedA(ctx, k.swk)
			for j := range a {
				eQ, eP := rq.NewPolyLevel(lq), rp.NewPolyLevel(lp)
				rq.MulCoeffs(a[j].Q, s.sk.Value.Q, eQ, lq)
				rq.Add(eQ, k.swk.B[j].Q, eQ, lq)
				rp.MulCoeffs(a[j].P, s.sk.Value.P, eP, lp)
				rp.Add(eP, k.swk.B[j].P, eP, lp)
				lo, hi := ctx.groupRange(j, lq)
				for i := lo; i <= hi; i++ {
					m := rq.Moduli[i]
					for c := range eQ.Coeffs[i] {
						eQ.Coeffs[i][c] = mod.Sub(eQ.Coeffs[i][c], m.BRed.Mul(ctx.pModQ[i], k.sPrime.Coeffs[i][c]), m.Q)
					}
				}
				rq.INTT(eQ, lq)
				rp.INTT(eP, lp)
				bound := int64(6*ctx.Params.Sigma) + 1
				for _, part := range []struct {
					r *ring.Ring
					p *ring.Poly
					l int
				}{{rq, eQ, lq}, {rp, eP, lp}} {
					for _, c := range part.r.PolyToBigCentered(part.p, part.l) {
						if !c.IsInt64() || c.Int64() > bound || c.Int64() < -bound {
							t.Fatalf("dnum=%d %s slice %d: b + a·s − P·s' has coefficient %v, not an error term", dnum, name, j, c)
						}
					}
				}
			}
		}
	}
}

// TestSeededKeySwitchMatchesOracle pins every key-switch path that reads a
// seeded key to oracleMAC over the materialized key, word for word, at
// several levels, dnum 1–3 and four (workers, block) engine shapes:
//   - keySwitch (relinearization key) against oracleMAC with g = 1 and the
//     same ModDown;
//   - keySwitchMAC — what every key-switch runs — against oracleMAC for
//     g = 1, a rotation and the conjugation;
//   - a whole LinearTransform, against the serial engine's output.
func TestSeededKeySwitchMatchesOracle(t *testing.T) {
	shapes := []struct{ workers, block int }{
		{0, 0},       // serial, default blocks
		{1, 64},      // single worker, forced small blocks
		{3, 48},      // odd worker count, ragged blocks
		{7, 1 << 20}, // wide pool, limb-only dispatch
	}
	for _, dnum := range []int{1, 2, 3} {
		var refLT *Ciphertext
		for _, shape := range shapes {
			name := fmt.Sprintf("dnum=%d workers=%d block=%d", dnum, shape.workers, shape.block)
			s := newTestSetup(t, dnum, []int{1, 2, 3, 5})
			ctx, ev := s.ctx, s.eval
			ctx.SetWorkers(shape.workers)
			if shape.block > 0 {
				ctx.RingQ.Exec().SetBlockSize(shape.block)
			}
			rq, rp := ctx.RingQ, ctx.RingP
			rng := rand.New(rand.NewSource(int64(50 + dnum)))
			for _, lvl := range []int{s.params.MaxLevel(), 3, 1} {
				lp := ctx.special[lvl].k - 1
				ct := randomCiphertext(ctx, rng, lvl)
				hd := ev.DecomposeNTT(ct)

				q0, p0, q1, p1 := oracleMAC(ctx, 1, hd, s.rlk)
				want0, want1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
				ev.modDown(q0, p0, lvl, 0, want0)
				ev.modDown(q1, p1, lvl, 0, want1)
				ks0, ks1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
				ev.keySwitch(ct.C1, lvl, s.rlk, ks0, ks1)
				if !rq.Equal(ks0, want0, lvl) || !rq.Equal(ks1, want1, lvl) {
					t.Fatalf("%s level %d: keySwitch differs from the materialized oracle", name, lvl)
				}

				for _, g := range []uint64{1, rq.GaloisElement(3), rq.GaloisConjugate()} {
					swk := s.rlk
					if g != 1 {
						swk = ev.rotationKey(g)
					}
					q0, p0, q1, p1 := oracleMAC(ctx, g, hd, swk)
					gq0, gq1 := rq.GetPolyNoZero(), rq.GetPolyNoZero()
					gp0, gp1 := rp.GetPolyNoZero(), rp.GetPolyNoZero()
					ev.keySwitchMAC(g, hd, swk, gq0, gp0, gq1, gp1)
					if !rq.Equal(gq0, q0, lvl) || !rq.Equal(gq1, q1, lvl) ||
						!rp.Equal(gp0, p0, lp) || !rp.Equal(gp1, p1, lp) {
						t.Fatalf("%s level %d g=%d: keySwitchMAC differs from the materialized oracle", name, lvl, g)
					}
					rq.PutPoly(gq0)
					rq.PutPoly(gq1)
					rp.PutPoly(gp0)
					rp.PutPoly(gp1)
				}
				hd.Release()
			}

			diags := map[int][]complex128{}
			for _, k := range []int{0, 1, 2, 3, 5} {
				diags[k] = randomComplex(rand.New(rand.NewSource(int64(k))), s.params.Slots(), 1)
			}
			lt, err := NewLinearTransform(s.encoder, diags, s.params.MaxLevel(), s.params.Scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range lt.Rotations() {
				if r != 0 && ev.rtks.Keys[rq.GaloisElement(r)] == nil {
					t.Fatalf("test key set misses rotation %d of the transform", r)
				}
			}
			out := ev.LinearTransform(randomCiphertext(ctx, rand.New(rand.NewSource(7)), s.params.MaxLevel()), lt)
			if refLT == nil {
				refLT = out
			} else {
				equalCT(t, ctx, refLT, out)
			}
		}
	}
}

// TestSeededMACWideDnum runs the key-switch MAC at dnum = 10 over 61-bit
// primes — ten reduced products of a residue and a raw seeded candidate per
// coefficient, the widest operands and the most slices in the tests. It must
// match oracleMAC word for word for g = 1 and a rotation.
func TestSeededMACWideDnum(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{61, 61, 61, 61, 61, 61, 61, 61, 61, 61},
		LogP:     61,
		Dnum:     10,
		LogScale: 40,
		H:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	lvl := params.MaxLevel()
	if b := params.Beta(lvl); b != 10 {
		t.Fatalf("β = %d slices at the top level, want 10", b)
	}
	kg := NewKeyGenerator(ctx, 7001)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, []int{1}, false)
	ev := NewEvaluator(ctx, NewEncoder(ctx), rlk, rtks)
	rq, rp := ctx.RingQ, ctx.RingP
	lp := ctx.special[lvl].k - 1
	ct := randomCiphertext(ctx, rand.New(rand.NewSource(71)), lvl)
	hd := ev.DecomposeNTT(ct)
	defer hd.Release()
	same := func(name string, q0, p0, q1, p1, gq0, gp0, gq1, gp1 *ring.Poly) {
		t.Helper()
		if !rq.Equal(gq0, q0, lvl) || !rq.Equal(gq1, q1, lvl) ||
			!rp.Equal(gp0, p0, lp) || !rp.Equal(gp1, p1, lp) {
			t.Fatalf("%s differs from the materialized oracle", name)
		}
	}
	for _, g := range []uint64{1, rq.GaloisElement(1)} {
		swk := rlk
		if g != 1 {
			swk = ev.rotationKey(g)
		}
		q0, p0, q1, p1 := oracleMAC(ctx, g, hd, swk)
		gq0, gq1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
		gp0, gp1 := rp.NewPolyLevel(lp), rp.NewPolyLevel(lp)
		ev.keySwitchMAC(g, hd, swk, gq0, gp0, gq1, gp1)
		same(fmt.Sprintf("g=%d: keySwitchMAC", g), q0, p0, q1, p1, gq0, gp0, gq1, gp1)
	}
}
