//go:build paperinstance

package ckks

import (
	"math/rand"
	"testing"
	"time"
)

// TestTable2PaperInstance bootstraps at the paper's own parameters: Table 2's
// INS-1 (Table2Literal: N = 2^17, L = 27, dnum = 1) through the S = 3
// factored pipeline of Table2BootstrapParams. The rotation keys alone take
// about 6.1 GiB and the run takes minutes, so the test sits behind a build
// tag:
//
//	go test -tags paperinstance -run TestTable2PaperInstance -timeout 2h -v ./internal/ckks/
//
// It requires the refreshed ciphertext to decrypt within 2e-2 of the input
// and to leave at level 13, and logs the set-up and bootstrap wall times, the
// phase breakdown and the evaluator's op counts. The engine runs on
// GOMAXPROCS workers; set GOMAXPROCS to time another worker count.
func TestTable2PaperInstance(t *testing.T) {
	params, err := NewParameters(Table2Literal())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	bp := Table2BootstrapParams()

	start := time.Now()
	kg := NewKeyGenerator(ctx, 9301)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	encoder := NewEncoder(ctx)
	probe, err := NewBootstrapper(ctx, encoder, NewEvaluator(ctx, encoder, rlk, nil), bp)
	if err != nil {
		t.Fatal(err)
	}
	rots := probe.Rotations()
	eval := NewEvaluator(ctx, encoder, rlk, kg.GenRotationKeys(sk, rots, true))
	bt, err := NewBootstrapper(ctx, encoder, eval, bp)
	if err != nil {
		t.Fatal(err)
	}
	cts, stc := bt.Chains()
	t.Logf("set-up %s: %d rotation keys, CtS diagonals %v, StC diagonals %v",
		time.Since(start).Round(time.Millisecond), len(rots), cts.DiagCounts(), stc.DiagCounts())

	rng := rand.New(rand.NewSource(9303))
	values := randomComplex(rng, params.Slots(), 0.7)
	pt, err := encoder.Encode(values, 0, params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewEncryptorSK(ctx, sk, 9302).EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	before := eval.Counters()
	start = time.Now()
	out, err := bt.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	ph := bt.LastPhases()
	ops := eval.Counters().Sub(before)
	e := maxErr(encoder.Decode(NewDecryptor(ctx, sk).DecryptNew(out)), values)
	t.Logf("bootstrap %s on %d workers: ModRaise %s, CoeffToSlot %s, EvalMod %s, SlotToCoeff %s",
		wall.Round(time.Millisecond), ctx.Workers(), ph.ModRaise.Round(time.Millisecond),
		ph.CoeffToSlot.Round(time.Millisecond), ph.EvalMod.Round(time.Millisecond), ph.SlotToCoeff.Round(time.Millisecond))
	t.Logf("ops: mult %d, full rot %d, hoisted rot %d, decompose %d, mod down %d, rescale %d, key switches %d",
		ops.Mult, ops.FullRot, ops.HoistedRot, ops.Decompose, ops.ModDown, ops.Rescale, ops.KeySwitchTotal())
	t.Logf("output level %d, max error %.3g", out.Level, e)
	if e > 2e-2 {
		t.Fatalf("bootstrap error %g above the 2e-2 budget", e)
	}
	if out.Level != 13 {
		t.Fatalf("output level %d, want 13", out.Level)
	}
}
