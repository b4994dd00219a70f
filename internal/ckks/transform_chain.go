package ckks

import (
	"fmt"
	"sort"
)

// TransformChain is an ordered list of linear-transform stages evaluated
// back to back with one rescale between stages — the factored-transform
// pipeline that replaces a single dense matrix in the bootstrapping
// CoeffToSlot/SlotToCoeff phases (see dft.go). The stages share one hoisted
// decomposition schedule: within every stage the baby-step rotations reuse a
// single decomposition of that stage's input through the double-hoisted
// LinearTransform pipeline, and across stages the rotation-key requirement
// is planned jointly (Rotations returns the union), which is what keeps the
// factored pipeline's key set a fraction of the dense transform's.
//
// Stage i must be encoded at level Level()-i with plaintext scale equal to
// the prime at that level, so the chain consumes exactly Depth() levels and
// leaves the ciphertext scale unchanged; NewTransformChain validates the
// level layout and EncodeDFTStages constructs chains that satisfy it.
type TransformChain struct {
	stages []*LinearTransform
}

// NewTransformChain assembles a chain, validating that stage levels descend
// by exactly one (each stage is followed by one rescale).
func NewTransformChain(stages ...*LinearTransform) (*TransformChain, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("ckks: transform chain with no stages")
	}
	for i, lt := range stages {
		if want := stages[0].Level - i; lt.Level != want {
			return nil, fmt.Errorf("ckks: transform chain stage %d at level %d, want %d (stage levels must descend by 1)",
				i, lt.Level, want)
		}
	}
	if stages[len(stages)-1].Level < 1 {
		return nil, fmt.Errorf("ckks: transform chain's last stage at level %d cannot be rescaled",
			stages[len(stages)-1].Level)
	}
	return &TransformChain{stages: stages}, nil
}

// Stages returns the chain's stages in application order (read-only).
func (tc *TransformChain) Stages() []*LinearTransform { return tc.stages }

// Depth returns the number of stages — the levels the chain consumes.
func (tc *TransformChain) Depth() int { return len(tc.stages) }

// Level returns the level the first stage is encoded at (the minimum input
// level).
func (tc *TransformChain) Level() int { return tc.stages[0].Level }

// OutputLevel returns the level a ciphertext entering at Level() leaves the
// chain at: Level() - Depth().
func (tc *TransformChain) OutputLevel() int { return tc.Level() - tc.Depth() }

// DiagCounts returns the per-stage diagonal counts (the sparsity profile the
// Table 2 cost model sums over).
func (tc *TransformChain) DiagCounts() []int {
	out := make([]int, len(tc.stages))
	for i, lt := range tc.stages {
		out[i] = len(lt.diags)
	}
	return out
}

// Rotations returns the union of the stages' rotation amounts — the key set
// a caller must generate to evaluate the chain.
func (tc *TransformChain) Rotations() []int {
	lists := make([][]int, len(tc.stages))
	for i, lt := range tc.stages {
		lists[i] = lt.Rotations()
	}
	out := dedupRotations(lists...)
	sort.Ints(out)
	return out
}

// TransformChain applies the chain to ct: each stage runs the double-hoisted
// BSGS evaluation (one decomposition shared by the stage's baby steps, each
// baby's rotated C0 lifted into its key-switch accumulator, every giant
// step's diagonal folds in one tiled ring.Fold per basis, one deferred
// ModDown per component per giant step) followed by one rescale, so the output carries the input's scale at level
// ct.Level - Depth(). Errors if the ciphertext is too shallow for any stage
// (stage boundaries are where the bootstrap level budget bites — see
// BootstrapParams.MinLevels).
func (ev *Evaluator) TransformChain(ct *Ciphertext, tc *TransformChain) (*Ciphertext, error) {
	cur := ct
	for i, lt := range tc.stages {
		if cur.Level < lt.Level {
			if i > 0 {
				ev.ctx.PutCiphertext(cur)
			}
			return nil, fmt.Errorf("ckks: transform chain stage %d encoded at level %d, ciphertext at %d",
				i, lt.Level, cur.Level)
		}
		sp := ev.begin(spanStage)
		t := ev.LinearTransform(cur, lt)
		if i > 0 {
			ev.ctx.PutCiphertext(cur)
		}
		cur = ev.Rescale(t)
		ev.ctx.PutCiphertext(t)
		ev.endSpan(&sp, cur)
	}
	return cur, nil
}
