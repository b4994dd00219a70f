package ckks

import "bts/internal/telemetry"

// Interned span names for the evaluator's instrumented regions. Interning
// happens once at package init; recording a span stores only the uint32
// handle.
var (
	spanKeySwitch  = telemetry.Name("ckks.keyswitch")
	spanMulRelin   = telemetry.Name("ckks.mulrelin")
	spanRotate     = telemetry.Name("ckks.rotate")
	spanRescale    = telemetry.Name("ckks.rescale")
	spanDecompose  = telemetry.Name("ckks.decompose")
	spanHoistedRot = telemetry.Name("ckks.rotate_hoisted")
	spanLinear     = telemetry.Name("ckks.linear_transform")
	spanStage      = telemetry.Name("ckks.transform_stage")
	spanChebyshev  = telemetry.Name("ckks.eval_chebyshev")

	spanBootModRaise    = telemetry.Name("bootstrap.modraise")
	spanBootCoeffToSlot = telemetry.Name("bootstrap.coeff_to_slot")
	spanBootEvalMod     = telemetry.Name("bootstrap.eval_mod")
	spanBootSlotToCoeff = telemetry.Name("bootstrap.slot_to_coeff")
)

// WithTrace returns a shallow copy of the evaluator that records spans into
// tr, parented under the given span ID (0 = trace root). The copy shares the
// context, keys, op counters and noise floor with the receiver, so its work
// still lands in the shared tallies.
//
// Unlike the shared receiver, the traced copy is NOT safe for concurrent use:
// nested spans thread a mutable current-parent field through the evaluator,
// so a traced evaluator must stay private to one goroutine (in practice, one
// served job). The untraced original never touches that field and remains
// freely shareable.
func (ev *Evaluator) WithTrace(tr telemetry.Trace, parent uint64) *Evaluator {
	cp := *ev
	cp.tr = tr
	cp.cur = parent
	return &cp
}

// WithNoiseFloor returns a shallow copy of the evaluator whose margin
// observations feed nf instead of the receiver's floor (nil disables
// observation). Composes with WithTrace; the same single-goroutine caveat
// applies to the combined copy only if it is also traced.
func (ev *Evaluator) WithNoiseFloor(nf *NoiseFloor) *Evaluator {
	cp := *ev
	cp.noise = nf
	return &cp
}

// begin opens a span under the evaluator's current parent and makes it the
// parent of nested spans. On an untraced evaluator it returns an inert span
// and touches nothing — one nil check per instrumented op.
func (ev *Evaluator) begin(name uint32) telemetry.Span {
	sp := ev.tr.Span(name, ev.cur)
	if sp.Recording() {
		ev.cur = sp.ID()
	}
	return sp
}

// endSpan closes a span opened by begin, restoring the parent chain. When ct
// is non-nil the result's level and noise margin ride along as attributes.
func (ev *Evaluator) endSpan(sp *telemetry.Span, ct *Ciphertext) {
	if !sp.Recording() {
		return
	}
	if ct != nil {
		sp.SetLevel(ct.Level)
		sp.SetMarginBits(ev.ctx.NoiseMargin(ct))
	}
	ev.cur = sp.Parent()
	sp.End()
}
