package serve

import (
	"fmt"
	"math"
	"time"

	"bts/internal/ckks"
)

// OpKind names a primitive HE operation a job may request — the op set of
// Section 2.3 of the paper plus bootstrapping and plaintext products.
type OpKind string

const (
	OpAdd           OpKind = "add"       // a + b
	OpSub           OpKind = "sub"       // a - b
	OpMul           OpKind = "mul"       // a ⊗ b, relinearized
	OpRotate        OpKind = "rot"       // a rotated left by `by`
	OpRotateHoisted OpKind = "roth"      // a rotated by each amount in `bys` (slot form only)
	OpConjugate     OpKind = "conj"      // slot-wise complex conjugate of a
	OpRescale       OpKind = "rescale"   // a divided by its last prime
	OpBootstrap     OpKind = "bootstrap" // a refreshed to full levels
	OpMulPlain      OpKind = "pmul"      // a ⊙ encode(vals)
)

// Op is one step of a job program. On the wire every job is register
// form: operands name ciphertext registers via Ra/Rb, and every op writes
// the register named by Out. A "$word" register belongs to the session: its
// value persists server-side across requests, so multi-request pipelines
// upload and download ciphertexts only at the DAG boundary. A "%word"
// register is job-local: it exists only inside the job that binds or
// writes it, and its value goes back to the server's ciphertext pool when
// the job ends. Ops are unordered — the scheduler derives the dependency
// graph from the names — and same-register rotation fans are hoisted
// through one shared key-switch decomposition automatically.
//
// Slot form is client-side sugar (Client.Do): operands A/B address a slot
// vector that starts with the job's input ciphertexts (slot 0..k-1 for k
// inputs); each op appends its result as the next slot — "roth" one slot
// per entry of Bys, in Bys order — and the final slot is the job's result.
// The client lowers slot k onto the job-local register "%k" and "roth" onto
// one "rot" per amount, all reading the same slot, so the fan detector
// hoists them as one.
type Op struct {
	Kind OpKind `json:"kind"`
	A    int    `json:"a,omitempty"`   // first operand slot (slot form)
	B    int    `json:"b,omitempty"`   // second operand slot (add/sub/mul, slot form)
	By   int    `json:"by,omitempty"`  // rotation amount (rot)
	Bys  []int  `json:"bys,omitempty"` // rotation amounts (roth, slot form)

	Ra   string    `json:"ra,omitempty"`   // first operand register
	Rb   string    `json:"rb,omitempty"`   // second operand register (add/sub/mul)
	Out  string    `json:"out,omitempty"`  // result register
	Vals []float64 `json:"vals,omitempty"` // plaintext vector (pmul)
}

// binary reports whether the op consumes two ciphertext operands.
func (o Op) binary() bool {
	return o.Kind == OpAdd || o.Kind == OpSub || o.Kind == OpMul
}

// execNode runs one compiled DAG node's primitive on the given evaluator.
// Rotation nodes that belong to a detected fan arrive with a prepared
// decomposition (hd non-nil) and ride the hoisted gather-MAC path —
// bit-identical to the naive rotation. Evaluator primitives panic on
// programmer error; the operand and key checks below turn every such error
// a program can make (mismatched scales, a missing key, rescale at level 0)
// into a terminal CodeBadJob first, so a bad program is never retried and
// never counts toward the session's quarantine.
func (s *Server) execNode(ev *ckks.Evaluator, bt *ckks.Bootstrapper, j *job, n *node, a, b *ckks.Ciphertext, hd *ckks.HoistedDecomposition) (*ckks.Ciphertext, error) {
	switch n.kind {
	case OpAdd, OpSub:
		if !ckks.ScalesMatch(a.Scale, b.Scale) {
			return nil, errf(CodeBadJob, "op %d: %s of operands at scales 2^%.3f and 2^%.3f", n.opIdx, n.kind, math.Log2(a.Scale), math.Log2(b.Scale))
		}
		if n.kind == OpAdd {
			return ev.Add(a, b), nil
		}
		return ev.Sub(a, b), nil
	case OpMul:
		if !ev.HasRelinearizationKey() {
			return nil, errf(CodeBadJob, "op %d: mul in session %q, which has no relinearization key", n.opIdx, j.sess.name)
		}
		return ev.MulRelin(a, b), nil
	case OpRotate, OpConjugate:
		g := s.ctx.RingQ.GaloisConjugate()
		if n.kind == OpRotate {
			g = s.ctx.RingQ.GaloisElement(n.by)
		}
		if !ev.HasGaloisKey(g) {
			return nil, errf(CodeBadJob, "op %d: %s needs the key for Galois element %d, which session %q lacks", n.opIdx, n.kind, g, j.sess.name)
		}
		if n.kind == OpConjugate {
			return ev.Conjugate(a), nil
		}
		if hd != nil {
			return ev.RotateWithDecomposition(a, n.by, hd), nil
		}
		return ev.Rotate(a, n.by), nil
	case OpRescale:
		if a.Level == 0 {
			return nil, errf(CodeBadJob, "op %d: rescale of a level-0 ciphertext", n.opIdx)
		}
		return ev.Rescale(a), nil
	case OpMulPlain:
		// The vector is encoded at the canonical scale Δ (not the operand's
		// current scale), so a pmul followed by rescale lands back near Δ —
		// and so the encoding cache key is stable across operand scales.
		pt, err := s.sessionPlaintext(j.sess, n.vals, a.Level, s.ctx.Params.Scale)
		if err != nil {
			return nil, errf(CodeInvalid, "op %d: encoding pmul vector: %v", n.opIdx, err)
		}
		return ev.MulPlain(a, pt), nil
	case OpBootstrap:
		if bt == nil {
			return nil, errf(CodeInvalid, "op %d: session %q has no bootstrapper (disabled or rotation keys missing)", n.opIdx, j.sess.name)
		}
		// BootstrapWith runs the pipeline on this node's evaluator, so a
		// traced job records the phase spans under its own op span.
		out, berr := bt.BootstrapWith(ev, a)
		if berr != nil {
			return nil, errf(CodeInvalid, "op %d: bootstrap: %v", n.opIdx, berr)
		}
		return out, nil
	}
	return nil, errf(CodeInternal, "op %d: unhandled compiled kind %q", n.opIdx, n.kind)
}

// jobPanicked converts a recovered op panic into the job's typed error:
// counted per op kind (bts_job_panics_total), dumped to /v1/traces when the
// job is traced, and scored against the session's quarantine ledger. The
// error is retryable — the op produced no result, and a panic may be
// load- or fault-injection-induced — but once the session quarantines,
// further submits fail terminally until the tenant reopens it. Safe to call
// from concurrent DAG node goroutines.
func (s *Server) jobPanicked(j *job, kind OpKind, r any) error {
	if kind == "" {
		kind = "(pre-op)"
	}
	if s.tel != nil {
		s.tel.observePanic(kind)
	}
	err := &Error{Code: CodeInternal, Retryable: true,
		Msg: fmt.Sprintf("op %s panicked: %v", kind, r)}
	if j.tr.Active() && s.tel != nil && s.tel.tracer != nil {
		s.tel.retainDump(j, time.Since(j.enqueued), "panic", err)
	}
	if j.sess.noteFault(s.cfg.QuarantineAfter) && s.tel != nil {
		s.tel.quarantines.Add(1)
	}
	return err
}
