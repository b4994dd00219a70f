package ckks

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bts/internal/ring"
)

// BootstrapParams configures the bootstrapping pipeline (the [40]-style
// algorithm of Section 2.4: ModRaise → CoeffToSlot → EvalMod → SlotToCoeff).
type BootstrapParams struct {
	// K is the half-range of the scaled-sine approximation; it must bound
	// ||I||∞ + 1 for the modulus-raising overflow polynomial I (which grows
	// with the secret Hamming weight H).
	K float64
	// SineDegree is the Chebyshev degree approximating sin(2πy)/(2π) over
	// [-K, K]. The depth EvalMod consumes is counted by a dry run of the
	// Chebyshev evaluation of the interpolant (see MinLevels).
	SineDegree int
	// CtSStages and StCStages factor CoeffToSlot and SlotToCoeff into that
	// many radix stages (the paper's Table 2 evaluates the linear transforms
	// in exactly this grouped-FFT form; see dft.go). Each stage consumes one
	// level but touches only O(2^(logSlots/stages)) diagonals, so raising the
	// stage count trades depth for a multiplicative drop in rotations and
	// key-switch work. Both must lie in [1, log2(slots)].
	CtSStages int
	StCStages int
}

// DefaultBootstrapParams works for very sparse secrets (H ≤ 8, the toy
// regime of this reproduction) with ~2^-15 output precision: ||I||∞ is
// bounded by (1+H)/2 = 4.5 < K, and degree 63 > 2πK guarantees exponential
// Chebyshev convergence of the scaled sine. CoeffToSlot and SlotToCoeff run
// as two-stage radix pipelines (Table 2's factored form).
func DefaultBootstrapParams() BootstrapParams {
	return BootstrapParams{K: 6, SineDegree: 63, CtSStages: 2, StCStages: 2}
}

// MinLevels returns the number of levels the pipeline requires (L_boot).
//
// Depth accounting, per phase:
//
//   - CoeffToSlot: one level per radix stage (CtSStages), each stage at
//     single-prime scale with the Δ/(2K·q0) factor — the coefficient
//     scaling and the map into the Chebyshev domain t = y/K — spread
//     evenly across stages.
//   - EvalMod: the depth of the Chebyshev evaluation of the scaled sine,
//     counted by the same dry run EvalChebyshev makes (chebDepth) — 8 for
//     Table2BootstrapParams, whose degree-255 sine trims to degree 209.
//     Both conjugate halves run at the same levels.
//   - SlotToCoeff: one level per radix stage (StCStages).
//   - 1 level of margin so the refreshed ciphertext supports at least one
//     multiplication.
//
// The trade-off dial (Table 2): stage count S splits logSlots butterfly
// layers into S groups of ~2^(logSlots/S) diagonals each, so rotations per
// transform fall roughly geometrically in S while depth grows by one level
// per extra stage. S=2 at 2^9 slots turns a 512-diagonal dense transform
// into 32+31-diagonal stages — ~4× fewer rotations for one extra level per
// transform.
func (bp BootstrapParams) MinLevels() int {
	return bp.CtSStages + bp.evalModDepth() + bp.StCStages + 1
}

// stcLevel returns the level SlotToCoeff starts at on a chain with maximum
// level L: what CoeffToSlot's stages and EvalMod's depth leave. The levels
// above it are the bootstrap section (see bootScaleBoost, Table2Literal).
func (bp BootstrapParams) stcLevel(L int) int {
	return L - bp.CtSStages - bp.evalModDepth()
}

// evalModDepth returns the levels EvalMod consumes.
func (bp BootstrapParams) evalModDepth() int { return chebDepth(bp.sineCoeffs()) }

// sineCoeffs returns EvalMod's polynomial: the Chebyshev interpolant of the
// scaled sine sin(2πK·t)/(2π) on t ∈ [-1, 1], which realizes y ↦ y mod 1
// for y = K·t near the integers.
func (bp BootstrapParams) sineCoeffs() []float64 {
	k := bp.K
	return ChebyshevCoeffs(func(t float64) float64 {
		return math.Sin(2*math.Pi*k*t) / (2 * math.Pi)
	}, -1, 1, bp.SineDegree)
}

// Bootstrapper refreshes exhausted ciphertexts: it takes a level-0 ct and
// returns an encryption of the same message with levels restored — the op
// that makes CKKS fully homomorphic and the focus of the BTS accelerator.
//
// Its linear-transform phases evaluate *factored*: CoeffToSlot is a chain of
// CtSStages sparse radix matrices (a grouped inverse FFT, slots left in
// bit-reversed order) and SlotToCoeff the mirrored forward chain (consuming
// bit-reversed slots), with the bit-reversals cancelling through the
// slot-wise EvalMod between them — see dft.go. Every stage runs on the
// hoisted key-switching pipeline (hoisting.go): one decomposition per stage
// input, a gather-MAC per baby rotation, one deferred ModDown per giant
// step.
type Bootstrapper struct {
	ctx     *Context
	encoder *Encoder
	eval    *Evaluator

	ctsChain *TransformChain
	stcChain *TransformChain

	sineCoeffs []float64

	// scaleBoost is the exact power-of-two working-scale boost between
	// ModRaise and SlotToCoeff (1 on uniform chains; see bootScaleBoost).
	scaleBoost float64

	// The last bootstrap's phase times (see LastPhases). Guarded by a mutex
	// rather than atomics: one update per bootstrap, and a bootstrap is
	// seconds of work.
	phaseMu    sync.Mutex
	lastPhases BootstrapPhases
}

// BootstrapPhases is the wall-time breakdown of one bootstrap across the
// pipeline's four phases. EvalMod covers everything between the transforms:
// conjugate split, normalization, the two Chebyshev sine evaluations — the
// wall time of both run at once on an engine with two or more workers, of
// one after the other on a serial engine — and recombination.
type BootstrapPhases struct {
	ModRaise    time.Duration
	CoeffToSlot time.Duration
	EvalMod     time.Duration
	SlotToCoeff time.Duration
}

// Total returns the summed phase time.
func (p BootstrapPhases) Total() time.Duration {
	return p.ModRaise + p.CoeffToSlot + p.EvalMod + p.SlotToCoeff
}

// LastPhases returns the phase breakdown of the most recent successful
// bootstrap (zero value before the first). Safe for concurrent use.
func (bt *Bootstrapper) LastPhases() BootstrapPhases {
	bt.phaseMu.Lock()
	defer bt.phaseMu.Unlock()
	return bt.lastPhases
}

func (bt *Bootstrapper) recordPhases(p BootstrapPhases) {
	bt.phaseMu.Lock()
	bt.lastPhases = p
	bt.phaseMu.Unlock()
}

// NewBootstrapper precomputes the CoeffToSlot/SlotToCoeff chains and the
// sine approximation. The evaluator must hold a relinearization key and
// rotation keys covering Rotations() (plus conjugation).
func NewBootstrapper(ctx *Context, encoder *Encoder, eval *Evaluator, bp BootstrapParams) (*Bootstrapper, error) {
	if bp.CtSStages < 1 || bp.StCStages < 1 {
		return nil, fmt.Errorf("ckks: bootstrap needs at least one stage per transform (got CtS=%d, StC=%d)",
			bp.CtSStages, bp.StCStages)
	}
	p := ctx.Params
	L := p.MaxLevel()
	if L < bp.MinLevels() {
		return nil, fmt.Errorf("ckks: L=%d below bootstrapping budget %d", L, bp.MinLevels())
	}
	q0 := float64(p.Q[0])
	delta := p.Scale

	bt := &Bootstrapper{ctx: ctx, encoder: encoder, eval: eval, sineCoeffs: bp.sineCoeffs()}

	// CoeffToSlot = CtSStages-stage inverse DFT carrying Δ/q0 and the 1/(2K)
	// that maps each conjugate half into the Chebyshev domain, spread across
	// stages; SlotToCoeff = StCStages-stage forward DFT carrying q0/Δ,
	// starting where EvalMod leaves off. The SlotToCoeff chain also sheds the
	// bootstrap working-scale boost (see scaleBoost below): its last stage is
	// encoded at 1/boost times the prime's scale, so the refreshed ciphertext
	// leaves at the input scale.
	var err error
	bt.ctsChain, err = encoder.EncodeDFTStages(DFTInverse, bp.CtSStages, L, delta/(2*bp.K*q0))
	if err != nil {
		return nil, fmt.Errorf("ckks: CoeffToSlot: %w", err)
	}
	stcLevel := bp.stcLevel(L)
	bt.scaleBoost = bootScaleBoost(p, stcLevel)
	bt.stcChain, err = encoder.EncodeDFTStagesShifted(DFTForward, bp.StCStages, stcLevel, q0/delta, 1/bt.scaleBoost)
	if err != nil {
		return nil, fmt.Errorf("ckks: SlotToCoeff: %w", err)
	}
	return bt, nil
}

// bootScaleBoost returns the exact power-of-two factor by which the
// pipeline raises the ciphertext scale between ModRaise and SlotToCoeff.
//
// EvalMod's precision is bounded by noise relative to the working scale: the
// Chebyshev power basis amplifies its input's value noise by ~deg², and the
// SlotToCoeff matrix carries that to the refreshed message with another
// ~√slots·(q0/Δ). At the paper instance (2^16 slots, deg 255, q0/Δ = 2^10)
// an EvalMod running at Δ = 2^50 therefore bottoms out around 2^-1 — far
// from a working bootstrap. The cure, standard across real CKKS bootstrap
// implementations, is to run the ModRaise→EvalMod span at the *bootstrap
// section's* prime size: when the chain allocates larger primes to the
// EvalMod levels (stcLevel+1 and up), an exact, noise-free scalar multiply
// by 2^(primeBits-scaleBits) after ModRaise raises the working scale to
// match, every rounding and key-switch noise in between lands relative to
// that larger scale, and the last SlotToCoeff stage folds the boost back
// out. Uniform chains (prime size == scale) get boost 1 and are untouched.
func bootScaleBoost(p Parameters, stcLevel int) float64 {
	// Primes are generated alternating around 2^bits, so round; Scale is an
	// exact power of two.
	scaleBits := int(math.Round(math.Log2(p.Scale)))
	primeBits := int(math.Round(math.Log2(float64(p.Q[stcLevel+1]))))
	if primeBits <= scaleBits {
		return 1
	}
	return float64(uint64(1) << (primeBits - scaleBits))
}

// Chains returns the CoeffToSlot and SlotToCoeff chains — benchmarks read
// their stage shapes.
func (bt *Bootstrapper) Chains() (cts, stc *TransformChain) { return bt.ctsChain, bt.stcChain }

// Rotations returns the rotation amounts the two chains need (conjugation is
// requested separately via GenRotationKeys(..., true)). Serving deployments
// advertise exactly this set.
func (bt *Bootstrapper) Rotations() []int {
	return dedupRotations(bt.ctsChain.Rotations(), bt.stcChain.Rotations())
}

func dedupRotations(lists ...[]int) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range lists {
		for _, r := range l {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// Bootstrap refreshes ct (which must be at level 0) and returns an
// equivalent ciphertext with levels restored: L - (CtSStages + EvalMod +
// StCStages), EvalMod's depth counted as in MinLevels. The message must
// satisfy |m_coeff| ≪ q0 (true whenever Scale·|z| ≪ q0).
//
// The CoeffToSlot chain leaves the slots bit-reversed; steps 3-5 (conjugate
// split, EvalMod, recombination) are all slot-wise and therefore commute
// with that permutation, and the SlotToCoeff chain consumes it — no
// repacking step exists anywhere.
func (bt *Bootstrapper) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	return bt.BootstrapWith(bt.eval, ct)
}

// BootstrapWith is Bootstrap running on the given evaluator instead of the
// one captured at construction — the serving runtime passes its job-private
// traced evaluator here so the bootstrap's span tree lands in the job's
// trace. ev must share the construction evaluator's context and keys (in
// practice: be a WithTrace/WithNoiseFloor copy of it). Phase timings are
// recorded on the bootstrapper either way (see LastPhases).
//
// EvalMod's two sine evaluations, on the real and the imaginary half, run as
// two tasks of the context's engine, each on a private shallow copy of ev: at
// the same time on a pool of two or more workers, one after the other on a
// serial engine. The output is the same word for word at every worker count.
// A traced ev's two ckks.eval_chebyshev spans both parent under
// bootstrap.eval_mod; a panic in either half is re-raised on the caller's
// goroutine once both have finished.
func (bt *Bootstrapper) BootstrapWith(ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	if ct.Level != 0 {
		return nil, fmt.Errorf("ckks: Bootstrap expects a level-0 ciphertext, got level %d", ct.Level)
	}
	var ph BootstrapPhases
	t0 := time.Now()

	// 1. ModRaise: re-interpret the mod-q0 residues over the whole chain;
	// the plaintext becomes m + q0·I with small I (Section 2.4).
	sp := ev.begin(spanBootModRaise)
	raised := ev.modRaise(ct)
	if bt.scaleBoost > 1 {
		// Raise the working scale to the bootstrap section's prime size: an
		// exact, noise-free integer scalar multiply (no level consumed).
		// Every rounding and key-switch noise between here and SlotToCoeff
		// now lands relative to the boosted scale; the last SlotToCoeff
		// stage is encoded 1/boost low and sheds it (see bootScaleBoost).
		raised = ev.MulConst(raised, 1, bt.scaleBoost)
	}
	ev.endSpan(&sp, raised)
	ph.ModRaise = time.Since(t0)
	t0 = time.Now()

	// 2. CoeffToSlot: slots now hold (c_j + i·c_{j+n})/(2K·q0)
	// (1/Δ-normalized), in bit-reversed slot order.
	sp = ev.begin(spanBootCoeffToSlot)
	ctv, err := ev.TransformChain(raised, bt.ctsChain)
	if err != nil {
		return nil, err
	}
	ev.endSpan(&sp, ctv)
	ph.CoeffToSlot = time.Since(t0)
	t0 = time.Now()

	sp = ev.begin(spanBootEvalMod)
	// 3. Conjugate split into two real-valued ciphertexts holding 2·Re(v)
	// and 2·Im(v): with CoeffToSlot's 1/(2K) they are the Chebyshev-domain
	// arguments t = y/K of the coefficients y = c/q0, at no level.
	conj := ev.Conjugate(ctv)
	ctR := ev.Add(ctv, conj)
	ctI := ev.MulByI(ev.Sub(conj, ctv))

	// 4. EvalMod: the scaled sine realizes y ↦ y mod 1 = m_j/q0 per slot.
	// Neither half reads the other, so both run at once: at EvalMod's low
	// levels one op's rows cannot fill the engine.
	var sR, sI *Ciphertext
	err = ev.both(func(ev *Evaluator) (err error) {
		sR, err = ev.EvalChebyshev(ctR, bt.sineCoeffs)
		return err
	}, func(ev *Evaluator) (err error) {
		sI, err = ev.EvalChebyshev(ctI, bt.sineCoeffs)
		return err
	})
	if err != nil {
		return nil, err
	}

	// 5. Recombine the real and imaginary halves. EvalMod's depth was
	// budgeted from the same dry run EvalChebyshev makes, so it lands exactly
	// where SlotToCoeff starts; anything else is a budget bug.
	comb := ev.Add(sR, ev.MulByI(sI))
	if stcLevel := bt.stcChain.Level(); comb.Level != stcLevel {
		return nil, fmt.Errorf("ckks: level budget error: EvalMod output at level %d, SlotToCoeff starts at %d", comb.Level, stcLevel)
	}
	ev.endSpan(&sp, comb)
	ph.EvalMod = time.Since(t0)
	t0 = time.Now()

	// 6. SlotToCoeff back to the coefficient embedding.
	sp = ev.begin(spanBootSlotToCoeff)
	out, err := ev.TransformChain(comb, bt.stcChain)
	if err != nil {
		return nil, err
	}
	ev.endSpan(&sp, out)
	ph.SlotToCoeff = time.Since(t0)
	bt.recordPhases(ph)
	return out, nil
}

// both runs f0 and f1 as the two tasks of one engine Run, each on its own
// shallow copy of ev, and returns once both have finished. The copies share
// everything but the span cursor, so a traced evaluator's branches each
// parent their spans under ev's current span and never under each other's.
// A serial engine runs f0 then f1 inline: the single-core schedule is the
// unforked one. A panic in either branch is recovered on its own goroutine —
// a worker's panic would otherwise kill the process — and re-raised with the
// same value on the caller's once both branches are done (f0's first). The
// error returned is f0's, else f1's.
func (ev *Evaluator) both(f0, f1 func(*Evaluator) error) error {
	fs := [2]func(*Evaluator) error{f0, f1}
	var errs [2]error
	var panics [2]any
	ev.ctx.engine.Run(2, func(i int) {
		defer func() { panics[i] = recover() }()
		cp := *ev
		errs[i] = fs[i](&cp)
	})
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// modRaise lifts a level-0 ciphertext to the full modulus chain: a BConv from
// {q0} onto {q1..qL} (Context.raiseExt). The one-prime conversion is exact —
// its digit is the coefficient itself and its centered representative is the
// lift into (−q0/2, q0/2] — so each row i ≥ 1 holds that lift mod q_i. The
// output's own row 0 serves as the INTT scratch before row 0 is copied in
// unchanged, and the forward NTT skips it: NTT(INTT(x)) = x word for word.
func (ev *Evaluator) modRaise(ct *Ciphertext) *Ciphertext {
	ev.counters.ModRaise.Add(1)
	rq := ev.ctx.RingQ
	L := rq.MaxLevel()
	out := ev.ctx.NewCiphertext(L, ct.Scale)
	for _, pair := range [][2]*ring.Poly{{ct.C0, out.C0}, {ct.C1, out.C1}} {
		src, dst := pair[0], pair[1]
		copy(dst.Coeffs[0], src.Coeffs[0])
		rq.INTTRow(dst.Coeffs[0], 0)
		ev.ctx.raiseExt.Convert(dst.Coeffs[:1], dst.Coeffs[1:L+1])
		copy(dst.Coeffs[0], src.Coeffs[0])
		rq.NTTExcept(dst, L, 0, 0)
	}
	return out
}
