package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// matchPerGiant runs lt on ct through LinearTransform and through its
// per-giant-step oracle at 1 and 2 workers, and fails unless the outputs
// are word for word equal and both moved the evaluator's op counters by the
// same amounts.
func matchPerGiant(t *testing.T, ctx *Context, ev *Evaluator, ct *Ciphertext, lt *LinearTransform) {
	t.Helper()
	defer ctx.Close()
	for _, workers := range []int{1, 2} {
		ctx.SetWorkers(workers)
		before := ev.Counters()
		got := ev.LinearTransform(ct, lt)
		mid := ev.Counters()
		want := ev.linearTransformPerGiant(ct, lt)
		if dg, dw := mid.Sub(before), ev.Counters().Sub(mid); dg != dw {
			t.Fatalf("%d workers: op counts %+v, per-giant oracle %+v", workers, dg, dw)
		}
		if mid.Sub(before).PMult != int64(len(lt.diags)) {
			t.Fatalf("%d workers: %d diagonal products counted, want %d", workers, mid.Sub(before).PMult, len(lt.diags))
		}
		if got.Level != want.Level || got.Scale != want.Scale ||
			!ctx.RingQ.Equal(got.C0, want.C0, got.Level) || !ctx.RingQ.Equal(got.C1, want.C1, got.Level) {
			t.Fatalf("%d workers: output differs from the per-giant-step fold", workers)
		}
		ctx.PutCiphertext(got)
		ctx.PutCiphertext(want)
	}
}

// TestLinearTransformMatchesPerGiantFold pins the tiled, all-giants-at-once
// fold (with each baby's rotated C0 lifted into its key-switch accumulator)
// to the per-giant-step fold it replaced, word for word and op count for op
// count, at 1 and 2 workers, on the transform shapes it distinguishes: a
// banded transform whose four giant steps share every baby and two of which
// hold a baby-0 diagonal; diagonals only on giant-step boundaries (no baby,
// no decomposition); a single giant step with and without its baby-0
// diagonal; and every stage of the Table 2-shape N=2^12 CoeffToSlot and
// SlotToCoeff chains.
func TestLinearTransformMatchesPerGiantFold(t *testing.T) {
	const n1 = 8
	s := newTestSetup(t, 2, nil)
	n := s.params.Slots()
	lvl := s.params.MaxLevel()
	rng := rand.New(rand.NewSource(331))
	pt, _ := s.encoder.Encode(randomComplex(rng, n, 1), lvl, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	band := []int{}
	for k := -12; k <= 12; k++ {
		if k != -n1 {
			band = append(band, k) // giants 0 and 1 hold k = 0 and 8; -1 and -2 no baby 0
		}
	}
	for _, c := range []struct {
		name string
		ks   []int
	}{
		{"banded", band},
		{"giant boundaries only", []int{0, n1, 2 * n1, -n1}},
		{"single giant", []int{0, 1, 2, 3, 5, 7}},
		{"single giant without baby 0", []int{1, 3, 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			diags := map[int][]complex128{}
			for _, k := range c.ks {
				diags[k] = randomComplex(rng, n, 1)
			}
			lt, err := newLinearTransformN1(s.encoder, diags, lvl, s.params.Scale, n1)
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(s.ctx, s.encoder, s.rlk, s.kg.GenRotationKeys(s.sk, lt.Rotations(), true))
			matchPerGiant(t, s.ctx, ev, ct, lt)
		})
	}

	t.Run("table2 n12 chains", func(t *testing.T) {
		if testing.Short() {
			t.Skip("Table 2-shape chains skipped with -short")
		}
		lit := Table2Literal()
		lit.LogN = 12
		params, err := NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		kg := NewKeyGenerator(ctx, 332)
		sk := kg.GenSecretKey()
		rlk := kg.GenRelinearizationKey(sk)
		encoder := NewEncoder(ctx)
		bt, err := NewBootstrapper(ctx, encoder, NewEvaluator(ctx, encoder, rlk, nil), Table2BootstrapParams())
		if err != nil {
			t.Fatal(err)
		}
		cts, stc := bt.Chains()
		ev := NewEvaluator(ctx, encoder, rlk, kg.GenRotationKeys(sk, dedupRotations(cts.Rotations(), stc.Rotations()), true))
		enc := NewEncryptorSK(ctx, sk, 333)
		for _, c := range []struct {
			name  string
			chain *TransformChain
		}{{"CoeffToSlot", cts}, {"SlotToCoeff", stc}} {
			for i, lt := range c.chain.stages {
				t.Run(fmt.Sprintf("%s stage %d", c.name, i), func(t *testing.T) {
					pt, _ := encoder.Encode(randomComplex(rng, params.Slots(), 1), lt.Level, params.Scale)
					ct, err := enc.EncryptNew(pt)
					if err != nil {
						t.Fatal(err)
					}
					matchPerGiant(t, ctx, ev, ct, lt)
				})
			}
		}
	})
}
