package sim

import "bts/internal/workload"

// This file is the software-vs-simulator calibration cross-check the package
// doc's caveats call for: the workload traces replayed by the Simulator
// expand *every* rotation into the full key-switch pipeline of Fig. 3(a),
// while the software library (internal/ckks) hoists — a BSGS linear
// transform pays the decomposition once and its baby-step rotations are
// NTT-domain gather-MACs with no (i)NTT/BConv at all. A naive count
// comparison would therefore misattribute the gap to modeling error.
// CrossCheckBootstrap takes the software's measured op mix (the ckks
// evaluator's counters) with hoisted rotations counted separately from full
// HRots, re-expresses it in full-key-switch equivalents, and reports how far
// the trace's op mix over- or under-states the software pipeline.

// MeasuredOpMix is the software-measured op mix of one workload run,
// bracketted by internal/ckks Evaluator counter snapshots. Hoisted
// rotations are counted separately from full rotations — the distinction
// the package-doc calibration caveat turns on.
type MeasuredOpMix struct {
	// Mult counts relinearized multiplications (full key-switch each).
	Mult int64
	// FullRot counts full-key-switch rotations: naive rotations, BSGS giant
	// steps, and conjugations.
	FullRot int64
	// HoistedRot counts hoisted baby rotations (gather-MAC against a shared
	// decomposition; no per-rotation (i)NTT/BConv).
	HoistedRot int64
	// Decompose counts shared hoisted decompositions (the iNTT + ModUp +
	// NTT half of the pipeline, paid once per transform stage input).
	Decompose int64
	// Rescale, PMult and ModRaise are the non-key-switching ops the traces
	// also emit (PMult includes the reduced diagonal folds of the hoisted
	// linear transform, ring.Fold).
	Rescale  int64
	PMult    int64
	ModRaise int64
}

// CalibrationReport compares a workload trace's op mix against a measured
// software mix.
type CalibrationReport struct {
	// Trace-side counts (every HRot a full pipeline).
	TraceMults     int `json:"trace_mults"`
	TraceRots      int `json:"trace_rots"`
	TraceKeySwitch int `json:"trace_key_switch"` // TraceMults + TraceRots
	TraceRescales  int `json:"trace_rescales"`
	TracePMults    int `json:"trace_pmults"`

	// Measured software counts.
	MeasuredFullKS    int64 `json:"measured_full_ks"` // Mult + FullRot
	MeasuredHoisted   int64 `json:"measured_hoisted"`
	MeasuredDecompose int64 `json:"measured_decompose"`
	MeasuredKeySwitch int64 `json:"measured_key_switch"` // full + hoisted: every evk-consuming op

	// FullEquivalentKS re-expresses the measured mix in full-key-switch
	// units under the hoisting cost model (babyCostRatio = cost of a full
	// key-switch over a hoisted baby rotation): a hoisted rotation is
	// 1/ratio of a full pipeline, and a shared decomposition is the
	// complement 1 - 1/ratio that the hoisted rotations skipped.
	FullEquivalentKS float64 `json:"full_equivalent_ks"`
	// TraceOverFullEquivalent is TraceKeySwitch / FullEquivalentKS: how much
	// the trace — which charges the full pipeline per rotation — overstates
	// the software's key-switch work. 1.0 means the accelerator model and
	// the software pipeline agree op for op; values well above 1 quantify
	// the hoisting advantage the traces do not model.
	TraceOverFullEquivalent float64 `json:"trace_over_full_equivalent"`
	// RotCountRatio compares raw rotation counts (trace HRots vs measured
	// full + hoisted rotations) — a shape check that the trace's BSGS
	// factorization matches the software's.
	RotCountRatio float64 `json:"rot_count_ratio"`
}

// DefaultBabyCostRatio is the fallback full-over-hoisted rotation cost ratio
// used when no measured value is supplied — the same host-measured round
// figure internal/ckks's BSGS split model uses (giantStepCost).
const DefaultBabyCostRatio = 8.0

// CrossCheckBootstrap compares the op mix of tr (typically
// workload.BootstrapTrace for a shape mirroring the software pipeline's
// stage diagonal counts) against the measured software mix m.
// babyCostRatio ≤ 0 selects DefaultBabyCostRatio.
func CrossCheckBootstrap(tr workload.Trace, m MeasuredOpMix, babyCostRatio float64) CalibrationReport {
	if babyCostRatio <= 0 {
		babyCostRatio = DefaultBabyCostRatio
	}
	counts := tr.Counts()
	rep := CalibrationReport{
		TraceMults:        counts[workload.HMult],
		TraceRots:         counts[workload.HRot],
		TraceKeySwitch:    tr.KeySwitchOps(),
		TraceRescales:     counts[workload.HRescale],
		TracePMults:       counts[workload.PMult],
		MeasuredFullKS:    m.Mult + m.FullRot,
		MeasuredHoisted:   m.HoistedRot,
		MeasuredDecompose: m.Decompose,
		MeasuredKeySwitch: m.Mult + m.FullRot + m.HoistedRot,
	}
	rep.FullEquivalentKS = float64(rep.MeasuredFullKS) +
		float64(m.HoistedRot)/babyCostRatio +
		float64(m.Decompose)*(1-1/babyCostRatio)
	if rep.FullEquivalentKS > 0 {
		rep.TraceOverFullEquivalent = float64(rep.TraceKeySwitch) / rep.FullEquivalentKS
	}
	if measured := m.FullRot + m.HoistedRot; measured > 0 {
		rep.RotCountRatio = float64(rep.TraceRots) / float64(measured)
	}
	return rep
}
