package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// applyDiags multiplies the diagonal-represented matrix against v:
// out[j] = Σ_k diags[k][j] · v[(j+k) mod n].
func applyDiags(diags map[int][]complex128, v []complex128) []complex128 {
	n := len(v)
	out := make([]complex128, n)
	for k, d := range diags {
		for j := 0; j < n; j++ {
			out[j] += d[j] * v[(j+k)%n]
		}
	}
	return out
}

// TestDFTStageDiagsProduct pins the factorization convention: the product of
// the DFTInverse stages equals B·U^{-1} (apply the chain, get the
// bit-reversed inverse special FFT) and the DFTForward stages equal U·B, at
// every stage count. This is the exactness invariant that lets the staged
// bootstrap omit both bit-reversals.
func TestDFTStageDiagsProduct(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	e := s.encoder
	n := e.Slots()
	rng := rand.New(rand.NewSource(91))
	v := randomComplex(rng, n, 1)

	logn := 0
	for 1<<logn < n {
		logn++
	}
	for _, numStages := range []int{1, 2, 3, logn} {
		// Inverse: chain(v) must equal bitrev(fftSpecialInv(v)).
		stages, err := e.DFTStageDiags(DFTInverse, numStages)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), v...)
		for _, st := range stages {
			got = applyDiags(st, got)
		}
		want := append([]complex128(nil), v...)
		e.fftSpecialInv(want)
		bitReverseInPlace(want)
		if err := maxErr(got, want); err > 1e-9 {
			t.Fatalf("inverse chain (%d stages) deviates from B·U^{-1} by %g", numStages, err)
		}

		// Forward: chain(v) must equal fftSpecial(bitrev(v)).
		stages, err = e.DFTStageDiags(DFTForward, numStages)
		if err != nil {
			t.Fatal(err)
		}
		got = append([]complex128(nil), v...)
		for _, st := range stages {
			got = applyDiags(st, got)
		}
		want = append([]complex128(nil), v...)
		bitReverseInPlace(want)
		e.fftSpecial(want)
		if err := maxErr(got, want); err > 1e-9 {
			t.Fatalf("forward chain (%d stages) deviates from U·B by %g", numStages, err)
		}

		// Round trip: forward ∘ inverse must be the identity (B cancels).
		inv, _ := e.DFTStageDiags(DFTInverse, numStages)
		fwd, _ := e.DFTStageDiags(DFTForward, numStages)
		got = append([]complex128(nil), v...)
		for _, st := range inv {
			got = applyDiags(st, got)
		}
		for _, st := range fwd {
			got = applyDiags(st, got)
		}
		if err := maxErr(got, v); err > 1e-9 {
			t.Fatalf("forward∘inverse (%d stages) deviates from identity by %g", numStages, err)
		}
	}
}

// TestDFTStageDiagsSparsity checks the Table 2 cost-model premise: a merged
// stage of d radix-2 layers has at most 2^(d+1)-1 diagonals (collapsing
// further mod n), a tiny fraction of the dense transform's n.
func TestDFTStageDiagsSparsity(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	e := s.encoder
	n := e.Slots()
	logn := 0
	for 1<<logn < n {
		logn++
	}
	for _, kind := range []DFTKind{DFTInverse, DFTForward} {
		for _, numStages := range []int{2, 3} {
			stages, err := e.DFTStageDiags(kind, numStages)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for i, st := range stages {
				d := (logn + numStages - 1) / numStages // max layers per stage
				bound := 2<<d - 1
				if len(st) > bound {
					t.Fatalf("kind=%d stages=%d: stage %d has %d diagonals, bound %d",
						kind, numStages, i, len(st), bound)
				}
				total += len(st)
			}
			if total >= n {
				t.Fatalf("kind=%d stages=%d: %d total diagonals not sparser than dense %d",
					kind, numStages, total, n)
			}
		}
	}
	// Invalid stage counts are rejected.
	if _, err := e.DFTStageDiags(DFTInverse, 0); err == nil {
		t.Fatal("expected error for 0 stages")
	}
	if _, err := e.DFTStageDiags(DFTInverse, logn+1); err == nil {
		t.Fatal("expected error for more stages than radix layers")
	}
}

// TestEncodeDFTStagesHomomorphic runs a 2-stage inverse chain homomorphically
// and checks it against the plain bit-reversed inverse FFT, then the full
// inverse→forward round trip against the identity.
func TestEncodeDFTStagesHomomorphic(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	e := s.encoder
	n := e.Slots()
	rng := rand.New(rand.NewSource(92))
	v := randomComplex(rng, n, 1)
	lvl := s.params.MaxLevel()

	inv, err := e.EncodeDFTStages(DFTInverse, 2, lvl, float64(n))
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := e.EncodeDFTStages(DFTForward, 2, inv.OutputLevel(), 1.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Depth() != 2 || inv.OutputLevel() != lvl-2 {
		t.Fatalf("inverse chain depth/output = %d/%d", inv.Depth(), inv.OutputLevel())
	}
	rots := append(inv.Rotations(), fwd.Rotations()...)
	rtks := s.kg.GenRotationKeys(s.sk, rots, false)
	eval := NewEvaluator(s.ctx, e, s.rlk, rtks)

	pt, _ := e.Encode(v, lvl, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	// The ×n factor on the inverse (undone by the forward chain's 1/n)
	// keeps the intermediate slot values O(1) for a crisp error bound.
	mid, err := eval.TransformChain(ct, inv)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]complex128(nil), v...)
	e.fftSpecialInv(want)
	bitReverseInPlace(want)
	for j := range want {
		want[j] *= complex(float64(n), 0)
	}
	got := e.Decode(s.dec.DecryptNew(mid))
	if err := maxErr(got, want); err > 1e-4 {
		t.Fatalf("homomorphic 2-stage inverse chain error %g", err)
	}

	back, err := eval.TransformChain(mid, fwd)
	if err != nil {
		t.Fatal(err)
	}
	if back.Level != lvl-4 {
		t.Fatalf("round-trip output level %d, want %d", back.Level, lvl-4)
	}
	if math.Abs(back.Scale/s.params.Scale-1) > 1e-9 {
		t.Fatalf("round-trip scale drifted: %g vs %g", back.Scale, s.params.Scale)
	}
	got = e.Decode(s.dec.DecryptNew(back))
	if err := maxErr(got, v); err > 1e-4 {
		t.Fatalf("homomorphic inverse→forward round trip error %g", err)
	}

	// A ciphertext below the chain's start level is rejected cleanly.
	low, _ := e.Encode(v, 1, s.params.Scale)
	ctLow, _ := s.enc.EncryptNew(low)
	if _, err := eval.TransformChain(ctLow, inv); err == nil {
		t.Fatal("expected error for too-shallow ciphertext")
	}

	// A shifted forward chain multiplies the ciphertext scale by exactly the
	// shift (values untouched) — the mechanism the staged bootstrap uses to
	// shed its working-scale boost on SlotToCoeff.
	const shift = 1.0 / 16
	fwdShifted, err := e.EncodeDFTStagesShifted(DFTForward, 2, inv.OutputLevel(), 1.0/float64(n), shift)
	if err != nil {
		t.Fatal(err)
	}
	backShifted, err := eval.TransformChain(mid, fwdShifted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(backShifted.Scale/(s.params.Scale*shift)-1) > 1e-9 {
		t.Fatalf("shifted chain scale %g, want %g", backShifted.Scale, s.params.Scale*shift)
	}
	got = e.Decode(s.dec.DecryptNew(backShifted))
	if err := maxErr(got, v); err > 1e-3 {
		t.Fatalf("shifted inverse→forward round trip error %g", err)
	}
}

func TestNewTransformChainValidation(t *testing.T) {
	s := newTestSetup(t, 1, nil)
	e := s.encoder
	n := e.Slots()
	lvl := s.params.MaxLevel()
	mk := func(level int) *LinearTransform {
		lt, err := NewLinearTransform(e, map[int][]complex128{0: ones(n)}, level, float64(s.params.Q[level]))
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	if _, err := NewTransformChain(); err == nil {
		t.Fatal("expected error for empty chain")
	}
	if _, err := NewTransformChain(mk(lvl), mk(lvl)); err == nil {
		t.Fatal("expected error for non-descending stage levels")
	}
	if _, err := NewTransformChain(mk(lvl), mk(lvl-2)); err == nil {
		t.Fatal("expected error for a level gap between stages")
	}
	if _, err := NewTransformChain(mk(0)); err == nil {
		t.Fatal("expected error for an unrescalable last stage")
	}
	tc, err := NewTransformChain(mk(lvl), mk(lvl-1))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Depth() != 2 || tc.Level() != lvl || tc.OutputLevel() != lvl-2 {
		t.Fatalf("chain geometry: depth=%d level=%d out=%d", tc.Depth(), tc.Level(), tc.OutputLevel())
	}
}

// TestBootstrapLevelBudget walks MinLevels across stage counts and checks
// the constructor accepts exactly L ≥ MinLevels — the off-by-one at every
// stage boundary — and rejects every stage configuration below one stage per
// transform.
func TestBootstrapLevelBudget(t *testing.T) {
	newCtx := func(levels int) (*Context, *Encoder, *Evaluator) {
		logQ := []int{55}
		for i := 0; i < levels; i++ {
			logQ = append(logQ, 45)
		}
		params, err := NewParameters(ParametersLiteral{
			LogN: 10, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(params)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewEncoder(ctx)
		return ctx, enc, NewEvaluator(ctx, enc, nil, nil)
	}
	for _, tc := range []struct {
		ctsStages, stcStages int
		wantMin              int
	}{
		{1, 1, 10},
		{2, 2, 12},
		{2, 3, 13},
		{3, 3, 14},
	} {
		bp := BootstrapParams{K: 6, SineDegree: 63, CtSStages: tc.ctsStages, StCStages: tc.stcStages}
		if got := bp.MinLevels(); got != tc.wantMin {
			t.Fatalf("stages (%d,%d): MinLevels=%d want %d", tc.ctsStages, tc.stcStages, got, tc.wantMin)
		}
		// One level short of the budget must fail, the exact budget succeed.
		ctx, enc, ev := newCtx(tc.wantMin - 1)
		if _, err := NewBootstrapper(ctx, enc, ev, bp); err == nil {
			t.Fatalf("stages (%d,%d): expected error at L=%d", tc.ctsStages, tc.stcStages, tc.wantMin-1)
		}
		ctx, enc, ev = newCtx(tc.wantMin)
		bt, err := NewBootstrapper(ctx, enc, ev, bp)
		if err != nil {
			t.Fatalf("stages (%d,%d): unexpected error at L=%d: %v", tc.ctsStages, tc.stcStages, tc.wantMin, err)
		}
		cts, stc := bt.Chains()
		if cts.Depth() != tc.ctsStages || stc.Depth() != tc.stcStages {
			t.Fatalf("stages (%d,%d): chain depths %d/%d", tc.ctsStages, tc.stcStages, cts.Depth(), stc.Depth())
		}
		if stc.OutputLevel() < 1 {
			t.Fatalf("stages (%d,%d): SlotToCoeff output level %d", tc.ctsStages, tc.stcStages, stc.OutputLevel())
		}
	}
	// Zero, negative and half-staged configurations are rejected however
	// many levels the chain has, as are more stages than radix layers.
	ctx, enc, ev := newCtx(15)
	for _, stages := range [][2]int{{0, 0}, {-1, 0}, {-1, -1}, {2, 0}, {0, 2}, {2, -1}} {
		bp := BootstrapParams{K: 6, SineDegree: 63, CtSStages: stages[0], StCStages: stages[1]}
		if _, err := NewBootstrapper(ctx, enc, ev, bp); err == nil {
			t.Fatalf("stages (%d,%d): expected error", stages[0], stages[1])
		}
	}
	if _, err := enc.EncodeDFTStages(DFTInverse, 10, 14, 1); err == nil {
		t.Fatal("expected error for more stages than radix layers")
	}
}

// TestBootstrapStagedMatchesDense is the factored pipeline's equivalence
// check: the staged bootstrap must decrypt to the same plaintext as a dense,
// unfactored reference within the existing precision budget — at several
// worker/block configurations (run under -race in CI) — while spending ≥1.5×
// fewer key-switch operations (measured by the evaluator's op counters). The
// reference is a bootstrapper with two CoeffToSlot stages and one
// SlotToCoeff stage whose chains are replaced by the probed dense matrices
// (denseChains), running on an evaluator that holds their rotation keys. It
// spends a second CoeffToSlot level on the Δ/(2K·q0) factor, so its error
// (≈1.4e-4) is as small as the staged pipeline's, and the staged error may
// not exceed twice it.
func TestBootstrapStagedMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("staged-vs-dense bootstrap comparison is expensive; skipped with -short")
	}
	rng := rand.New(rand.NewSource(93))
	values := randomComplex(rng, 1<<9, 0.7)
	for _, cfg := range []struct{ workers, block int }{
		{0, 0},  // serial
		{4, 64}, // limb × coefficient-block sharded
	} {
		s, bt := bootSetup(t)
		s.ctx.SetWorkers(cfg.workers)
		if cfg.block > 0 {
			s.ctx.SetBlockSize(cfg.block)
		}
		denseBP := DefaultBootstrapParams()
		denseBP.CtSStages, denseBP.StCStages = 2, 1
		ref, err := NewBootstrapper(s.ctx, s.encoder, s.eval, denseBP)
		if err != nil {
			t.Fatal(err)
		}
		if ref.ctsChain, ref.stcChain, err = denseChains(ref, denseBP.K); err != nil {
			t.Fatal(err)
		}
		denseEval := NewEvaluator(s.ctx, s.encoder, s.rlk, s.kg.GenRotationKeys(s.sk, ref.Rotations(), true))

		pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
		ct, err := s.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}

		s.eval.ResetCounters()
		staged, err := bt.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		stagedOps := s.eval.Counters()

		dense, err := ref.BootstrapWith(denseEval, ct)
		if err != nil {
			t.Fatal(err)
		}
		denseOps := denseEval.Counters()

		stagedVals := s.encoder.Decode(s.dec.DecryptNew(staged))
		denseVals := s.encoder.Decode(s.dec.DecryptNew(dense))
		errStaged := maxErr(stagedVals, values)
		errDense := maxErr(denseVals, values)
		errDelta := maxErr(stagedVals, denseVals)
		ratio := float64(denseOps.KeySwitchTotal()) / float64(stagedOps.KeySwitchTotal())
		t.Logf("workers=%d block=%d: staged err %.3g (level %d, ks %d), dense err %.3g (level %d, ks %d), delta %.3g, ks ratio %.2f",
			cfg.workers, cfg.block, errStaged, staged.Level, stagedOps.KeySwitchTotal(),
			errDense, dense.Level, denseOps.KeySwitchTotal(), errDelta, ratio)

		if errStaged > 2e-2 {
			t.Fatalf("staged bootstrap error %g above the 2e-2 budget", errStaged)
		}
		if errDelta > 2e-2 {
			t.Fatalf("staged deviates from dense reference by %g", errDelta)
		}
		if errStaged > 2*errDense+1e-9 {
			t.Fatalf("staged error %g worse than dense %g beyond jitter", errStaged, errDense)
		}
		if staged.Level < 2 {
			t.Fatalf("staged bootstrap restored only %d levels", staged.Level)
		}
		if ratio < 1.5 {
			t.Fatalf("staged key-switch reduction %.2fx below the 1.5x bar", ratio)
		}
	}
}
