package ckks

import "sync/atomic"

// opCounters is the evaluator's internal atomic tally of the primitive-op
// mix. It exists for the software-vs-simulator calibration cross-check
// (internal/sim): the simulator's workload traces expand every rotation into
// the full key-switch pipeline, while the hoisted evaluator pays the full
// pipeline only for naive/giant-step rotations — baby steps are NTT-domain
// gather-MACs against a shared decomposition — so the measured mix must
// count the two classes separately to be comparable. Counting sites are the
// hot paths' entry points; the atomic adds are noise next to the polynomial
// arithmetic they count.
type opCounters struct {
	Mult       atomic.Int64 // relinearized tensor products (HMult)
	FullRot    atomic.Int64 // full-key-switch automorphisms: naive/giant rotations + conjugations
	HoistedRot atomic.Int64 // hoisted rotations: gather-MAC against a shared decomposition
	Decompose  atomic.Int64 // hoisted decompositions (iNTT + ModUp + NTT per slice)
	ModDown    atomic.Int64 // extended-basis ModDowns (2 per full key-switch, 2 per giant step)
	Rescale    atomic.Int64 // HRescale ops
	PMult      atomic.Int64 // plaintext products, incl. diagonal folds inside linear transforms
	ModRaise   atomic.Int64 // bootstrap modulus raisings
}

// OpCounters is a snapshot of the evaluator's measured op mix (see
// Evaluator.Counters). Subtracting two snapshots brackets a workload: reset,
// run, read.
type OpCounters struct {
	Mult       int64
	FullRot    int64
	HoistedRot int64
	Decompose  int64
	ModDown    int64
	Rescale    int64
	PMult      int64
	ModRaise   int64
}

// KeySwitchTotal returns the number of evk-consuming operations in the
// snapshot: full key-switch pipelines (multiplications and full rotations)
// plus hoisted rotations, which still pay the per-slice MAC against the
// rotation key even though they skip the decomposition. This is the metric
// the staged-vs-dense bootstrap test compares.
func (c OpCounters) KeySwitchTotal() int64 {
	return c.Mult + c.FullRot + c.HoistedRot
}

// Sub returns the per-field difference c - prev, bracketing the ops executed
// between two snapshots.
func (c OpCounters) Sub(prev OpCounters) OpCounters {
	return OpCounters{
		Mult:       c.Mult - prev.Mult,
		FullRot:    c.FullRot - prev.FullRot,
		HoistedRot: c.HoistedRot - prev.HoistedRot,
		Decompose:  c.Decompose - prev.Decompose,
		ModDown:    c.ModDown - prev.ModDown,
		Rescale:    c.Rescale - prev.Rescale,
		PMult:      c.PMult - prev.PMult,
		ModRaise:   c.ModRaise - prev.ModRaise,
	}
}

// Add returns the per-field sum c + other. The serving layer uses it to
// keep a session's reported op mix monotonic across evaluator rebuilds:
// evicting a session's keys folds the old evaluator's tally into a base,
// and the evaluator rebuilt at rehydration starts counting from zero.
func (c OpCounters) Add(other OpCounters) OpCounters {
	return OpCounters{
		Mult:       c.Mult + other.Mult,
		FullRot:    c.FullRot + other.FullRot,
		HoistedRot: c.HoistedRot + other.HoistedRot,
		Decompose:  c.Decompose + other.Decompose,
		ModDown:    c.ModDown + other.ModDown,
		Rescale:    c.Rescale + other.Rescale,
		PMult:      c.PMult + other.PMult,
		ModRaise:   c.ModRaise + other.ModRaise,
	}
}

// Counters returns a snapshot of the op mix executed through this evaluator
// since construction; bracket a region with Counters().Sub(before). Safe for
// concurrent use.
func (ev *Evaluator) Counters() OpCounters {
	return OpCounters{
		Mult:       ev.counters.Mult.Load(),
		FullRot:    ev.counters.FullRot.Load(),
		HoistedRot: ev.counters.HoistedRot.Load(),
		Decompose:  ev.counters.Decompose.Load(),
		ModDown:    ev.counters.ModDown.Load(),
		Rescale:    ev.counters.Rescale.Load(),
		PMult:      ev.counters.PMult.Load(),
		ModRaise:   ev.counters.ModRaise.Load(),
	}
}
