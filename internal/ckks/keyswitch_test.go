package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"bts/internal/mod"
	"bts/internal/ring"
)

// keySwitch is the key-switch of d on its own: decompose, the g = 1 MAC and
// the accumulators divided by P_ℓ into (ks0, ks1), as MulRelin runs it on d2.
func (ev *Evaluator) keySwitch(d *ring.Poly, lvl int, swk *SwitchingKey, ks0, ks1 *ring.Poly) {
	hd := ev.decompose(d, lvl)
	defer hd.Release()
	ev.keySwitchWith(lvl, 0, func(accQ0, accP0, accQ1, accP1 *ring.Poly) {
		ev.keySwitchMAC(1, hd, swk, accQ0, accP0, accQ1, accP1)
	}, ks0, ks1)
}

// TestMulRelinRescaleMatchesUnfused pins the fused division against the
// two-step form it replaces: same level, same tracked scale to the last bit,
// the same message to within the extra base-conversion overflow the fused
// form keeps, and nothing else — the decrypted coefficient difference is the
// size of that overflow, over the level's np = k_ℓ special primes, times the
// secret.
func TestMulRelinRescaleMatchesUnfused(t *testing.T) {
	for _, dnum := range []int{1, 3, 6} {
		s := newTestSetup(t, dnum, nil)
		top := s.params.MaxLevel()
		rng := rand.New(rand.NewSource(int64(130 + dnum)))
		v0 := randomComplex(rng, s.params.Slots(), 1)
		v1 := randomComplex(rng, s.params.Slots(), 1)
		want := make([]complex128, len(v0))
		for i := range want {
			want[i] = v0[i] * v1[i]
		}
		logScale := math.Log2(s.params.Scale)
		for _, lvl := range []int{1, top / 2, top} {
			np := s.params.SpecialPrimes(lvl)
			pt0, _ := s.encoder.Encode(v0, lvl, s.params.Scale)
			pt1, _ := s.encoder.Encode(v1, lvl, s.params.Scale)
			ct0, _ := s.enc.EncryptNew(pt0)
			ct1, _ := s.enc.EncryptNew(pt1)
			unfused := s.eval.Rescale(s.eval.MulRelin(ct0, ct1))
			before := s.eval.Counters()
			fused := s.eval.MulRelinRescale(ct0, ct1)
			if got, want := s.eval.Counters().Sub(before), (OpCounters{Mult: 1, Rescale: 1, ModDown: 2}); got != want {
				t.Fatalf("dnum=%d level=%d: fused op counted as %+v, want %+v", dnum, lvl, got, want)
			}
			if fused.Level != unfused.Level || fused.Scale != unfused.Scale {
				t.Fatalf("dnum=%d level=%d: fused (level %d, scale %v) vs unfused (level %d, scale %v)",
					dnum, lvl, fused.Level, fused.Scale, unfused.Level, unfused.Scale)
			}

			ptU, ptF := s.dec.DecryptNew(unfused), s.dec.DecryptNew(fused)
			errU := maxErr(s.encoder.Decode(ptU), want)
			errF := maxErr(s.encoder.Decode(ptF), want)
			t.Logf("dnum=%d level=%d: slot error unfused 2^%.2f, fused 2^%.2f (ratio %.2f)",
				dnum, lvl, math.Log2(errU), math.Log2(errF), errF/errU)
			if errF > 8*errU {
				t.Errorf("dnum=%d level=%d: fused error %g more than 3 bits above unfused %g", dnum, lvl, errF, errU)
			}
			if bound := math.Exp2(-(logScale - 12)); errF > bound {
				t.Errorf("dnum=%d level=%d: fused error %g above 2^-(logΔ-12) = %g", dnum, lvl, errF, bound)
			}

			// The two results encrypt the same product; what separates
			// them is one overflow unit set per coefficient of each
			// component, the C1 part multiplied by the secret.
			rq := s.ctx.RingQ
			rq.Sub(ptU.Value, ptF.Value, ptU.Value, fused.Level)
			rq.INTT(ptU.Value, fused.Level)
			var sum, sumSq float64
			for _, c := range rq.PolyToBigCentered(ptU.Value, fused.Level) {
				f, _ := new(big.Float).SetInt(c).Float64()
				sum += f
				sumSq += f * f
			}
			n := float64(rq.N)
			std := math.Sqrt(sumSq/n - (sum/n)*(sum/n))
			bound := 2 * math.Sqrt(float64((np+1)*(s.params.H+1))/12)
			t.Logf("dnum=%d level=%d: coefficient difference std %.2f (bound %.2f, np=%d)", dnum, lvl, std, bound, np)
			if std > bound {
				t.Errorf("dnum=%d level=%d: coefficient difference std %.2f above %.2f", dnum, lvl, std, bound)
			}
		}

		pt, _ := s.encoder.Encode(v0, 0, s.params.Scale)
		ct, _ := s.enc.EncryptNew(pt)
		func() {
			defer func() {
				if r := recover(); r != "ckks: cannot rescale a level-0 ciphertext" {
					t.Fatalf("dnum=%d: MulRelinRescale at level 0 recovered %v, want Rescale's panic", dnum, r)
				}
			}()
			s.eval.MulRelinRescale(ct, ct)
		}()
	}
}

// modUpSliceRoundTrip is one slice of decompose as it was before the group
// rows stopped making the round trip through the coefficient domain: copy
// them from dCoeff and forward-transform every row, over the level's special
// prefix. Kept as the oracle the production body must match word for word.
func (ev *Evaluator) modUpSliceRoundTrip(j, lvl int, dCoeff, tmpQ, tmpP *ring.Poly) {
	ctx := ev.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	k := ctx.special[lvl].k
	lo, hi := ctx.groupRange(j, lvl)
	var dst [][]uint64
	for i := 0; i <= lvl; i++ {
		if i < lo || i > hi {
			dst = append(dst, tmpQ.Coeffs[i])
		}
	}
	dst = append(dst, tmpP.Coeffs[:k]...)
	ctx.modUpExtender(j, lvl).Convert(dCoeff.Coeffs[lo:hi+1], dst)
	for i := lo; i <= hi; i++ {
		copy(tmpQ.Coeffs[i], dCoeff.Coeffs[i])
	}
	rq.NTT(tmpQ, lvl)
	rp.NTT(tmpP, k-1)
}

// liftedCoeffs returns d (NTT domain, level lvl) in the coefficient domain,
// scaled by the level's lift [(P/P_ℓ)^-1]_{q_i} — after the iNTT, where the
// key-switch scales before it; the iNTT is linear and both end canonical, so
// the two orders agree word for word.
func liftedCoeffs(ctx *Context, d *ring.Poly, lvl int) *ring.Poly {
	rq := ctx.RingQ
	sm := ctx.special[lvl]
	out := rq.CopyNew(d, lvl)
	rq.INTT(out, lvl)
	for i := 0; i <= lvl; i++ {
		for t, x := range out.Coeffs[i] {
			out.Coeffs[i][t] = mod.Mul(x, sm.lift[i], rq.Moduli[i].Q)
		}
	}
	return out
}

// TestModUpSkipsRoundTripBitIdentical pins DecomposeNTT and keySwitch to the
// round-trip oracle, at a level where the last decomposition group — for
// dnum = 1 the only one — is partial, and where dnum = 1 divides by fewer
// special primes than it holds (so the lift is not 1).
func TestModUpSkipsRoundTripBitIdentical(t *testing.T) {
	for _, dnum := range []int{1, 2, 3} {
		s := newTestSetup(t, dnum, nil)
		ctx, ev := s.ctx, s.eval
		rq, rp := ctx.RingQ, ctx.RingP
		lvl := s.params.MaxLevel() - 1 // 5 primes: groups of 6, 3+2, 2+2+1
		lp := ctx.special[lvl].k - 1
		if dnum == 1 && lp+1 == len(s.params.P) {
			t.Fatalf("dnum=1: level %d uses every special prime", lvl)
		}
		beta := s.params.Beta(lvl)
		if lo, hi := ctx.groupRange(beta-1, lvl); hi-lo+1 == s.params.Alpha() {
			t.Fatalf("dnum=%d: last group at level %d is not partial", dnum, lvl)
		}
		rng := rand.New(rand.NewSource(int64(140 + dnum)))
		pt, _ := s.encoder.Encode(randomComplex(rng, s.params.Slots(), 1), lvl, s.params.Scale)
		ct, _ := s.enc.EncryptNew(pt)

		// Oracle: slices, then the same MAC and ModDown the evaluator runs.
		dCoeff := liftedCoeffs(ctx, ct.C1, lvl)
		wantQ, wantP := make([]*ring.Poly, beta), make([]*ring.Poly, beta)
		accQ0, accQ1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
		accP0, accP1 := rp.NewPolyLevel(lp), rp.NewPolyLevel(lp)
		a := materializedA(ctx, s.rlk)
		for j := 0; j < beta; j++ {
			wantQ[j], wantP[j] = rq.NewPolyLevel(lvl), rp.NewPolyLevel(lp)
			ev.modUpSliceRoundTrip(j, lvl, dCoeff, wantQ[j], wantP[j])
			rq.MulCoeffsAndAdd(wantQ[j], s.rlk.B[j].Q, accQ0, lvl)
			rp.MulCoeffsAndAdd(wantP[j], s.rlk.B[j].P, accP0, lp)
			rq.MulCoeffsAndAdd(wantQ[j], a[j].Q, accQ1, lvl)
			rp.MulCoeffsAndAdd(wantP[j], a[j].P, accP1, lp)
		}
		want0, want1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
		ev.modDown(accQ0, accP0, lvl, 0, want0)
		ev.modDown(accQ1, accP1, lvl, 0, want1)

		hd := ev.DecomposeNTT(ct)
		for j := 0; j < beta; j++ {
			if !rq.Equal(hd.q[j], wantQ[j], lvl) || !rp.Equal(hd.p[j], wantP[j], lp) {
				t.Fatalf("dnum=%d: DecomposeNTT slice %d differs from the round-trip oracle", dnum, j)
			}
		}
		hd.Release()

		ks0, ks1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
		ev.keySwitch(ct.C1, lvl, s.rlk, ks0, ks1)
		if !rq.Equal(ks0, want0, lvl) || !rq.Equal(ks1, want1, lvl) {
			t.Fatalf("dnum=%d: keySwitch differs from the round-trip oracle", dnum)
		}
	}
}

// rotateOracle is HRot as Rotate ran it before the automorphism moved into
// the MAC's gather: σ_g(ct.C1) materialized by AutomorphismNTT, then its own
// g = 1 decomposition, MAC and ModDown, plus σ_g(ct.C0). It returns the two
// output components.
func (ev *Evaluator) rotateOracle(ct *Ciphertext, g uint64) (c0, c1 *ring.Poly) {
	rq := ev.ctx.RingQ
	lvl := ct.Level
	rotated := rq.NewPolyLevel(lvl)
	rq.AutomorphismNTT(ct.C1, g, rotated, lvl)
	ks0, c1 := rq.NewPolyLevel(lvl), rq.NewPolyLevel(lvl)
	ev.keySwitch(rotated, lvl, ev.rotationKey(g), ks0, c1)
	c0 = rq.NewPolyLevel(lvl)
	rq.AutomorphismNTT(ct.C0, g, c0, lvl)
	rq.Add(c0, ks0, c0, lvl)
	return c0, c1
}

// TestRotateMatchesPermuteFirstOracle pins Rotate and Conjugate, which read
// σ_g(ct.C1) through the MAC's gather, to rotateOracle word for word — at the
// top level and at a level whose last decomposition group is partial, for
// dnum 1, 2 and 3. RotateHoisted runs the same decomposition and MAC as
// Rotate, so this is the test that compares the rotation with a second,
// independent ordering of the pipeline.
func TestRotateMatchesPermuteFirstOracle(t *testing.T) {
	rotations := []int{1, 5, -3}
	for _, dnum := range []int{1, 2, 3} {
		s := newTestSetup(t, dnum, rotations)
		rq := s.ctx.RingQ
		top := s.params.MaxLevel()
		partial := top - 1 // 5 primes: groups of 6, 3+2, 2+2+1
		if lo, hi := s.ctx.groupRange(s.params.Beta(partial)-1, partial); hi-lo+1 == s.params.Alpha() {
			t.Fatalf("dnum=%d: last group at level %d is not partial", dnum, partial)
		}
		rng := rand.New(rand.NewSource(int64(160 + dnum)))
		for _, lvl := range []int{top, partial} {
			ct := randomCiphertext(s.ctx, rng, lvl)
			check := func(name string, g uint64, got *Ciphertext) {
				t.Helper()
				want0, want1 := s.eval.rotateOracle(ct, g)
				if got.Level != lvl || !rq.Equal(got.C0, want0, lvl) || !rq.Equal(got.C1, want1, lvl) {
					t.Fatalf("dnum=%d level=%d %s: differs from the permute-first oracle", dnum, lvl, name)
				}
				s.ctx.PutCiphertext(got)
			}
			for _, r := range rotations {
				check(fmt.Sprintf("Rotate(%d)", r), rq.GaloisElement(r), s.eval.Rotate(ct, r))
			}
			check("Conjugate", rq.GaloisConjugate(), s.eval.Conjugate(ct))
		}
		s.ctx.Close()
	}
}
