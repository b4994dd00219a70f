package ckks

import (
	"fmt"

	"bts/internal/ring"
)

// Plaintext is an encoded (unencrypted) message: a polynomial in R_Q at a
// given level, kept in the NTT domain, carrying its encoding scale Δ.
type Plaintext struct {
	Value *ring.Poly
	Level int
	Scale float64
}

// Ciphertext is a CKKS ciphertext ct = (b, a) ∈ R_Q^2 at a given level
// (Section 2.2). Both polynomials are kept in the NTT domain, the resident
// format of BTS (Section 4.1).
//
// Ciphertexts come in two flavors with identical semantics:
//
//   - plain ciphertexts (NewCiphertext) back both polynomials with one
//     contiguous allocation each, and
//   - pooled ciphertexts (Context.GetCiphertext) assemble their residue rows
//     from the q-ring's row pool. PutCiphertext recycles a ciphertext with
//     its rows attached and DropLevel hands the dropped rows back, so a
//     result that is Put allocates nothing the next time round. A pooled
//     ciphertext that is never Put — a serving register value replaced
//     while jobs may still read it — goes to the garbage collector rows and
//     all, and the fresh ciphertext that takes its place borrows new rows.
type Ciphertext struct {
	C0, C1 *ring.Poly // b(X), a(X)
	Level  int
	Scale  float64

	// owner is non-nil for pooled ciphertexts and names the context whose
	// row pool backs the residue rows.
	owner *Context
}

// NewCiphertext allocates a zero ciphertext at the given level and scale.
func (ctx *Context) NewCiphertext(level int, scale float64) *Ciphertext {
	return &Ciphertext{
		C0:    ctx.RingQ.NewPolyLevel(level),
		C1:    ctx.RingQ.NewPolyLevel(level),
		Level: level,
		Scale: scale,
	}
}

// GetCiphertext borrows a zeroed ciphertext usable up to the given level from
// the context's pool (the pooled-Ciphertext discipline mirroring the ring's
// GetPolyNoZero/PutPoly scratch pools). The caller must return it with
// PutCiphertext when done; a pooled ciphertext is otherwise a drop-in
// replacement for one built by NewCiphertext.
func (ctx *Context) GetCiphertext(level int, scale float64) *Ciphertext {
	ct := ctx.getCiphertextNoZero(level, scale)
	ctx.RingQ.Zero(ct.C0, level)
	ctx.RingQ.Zero(ct.C1, level)
	return ct
}

// GetCiphertextNoZero is GetCiphertext without the zeroing pass: row
// contents are undefined, so the caller must fully overwrite rows 0..level
// before reading them — the same contract as ring.GetPolyNoZero. The
// evaluator uses it for every *New op output, and the wire decoder for
// ciphertexts whose rows the decode loop overwrites.
func (ctx *Context) GetCiphertextNoZero(level int, scale float64) *Ciphertext {
	return ctx.getCiphertextNoZero(level, scale)
}

func (ctx *Context) getCiphertextNoZero(level int, scale float64) *Ciphertext {
	ct, _ := ctx.ctPool.Get().(*Ciphertext)
	if ct == nil {
		ct = &Ciphertext{C0: &ring.Poly{}, C1: &ring.Poly{}, owner: ctx}
	}
	ctx.growRows(ct.C0, level)
	ctx.growRows(ct.C1, level)
	ct.Level = level
	ct.Scale = scale
	return ct
}

// growRows extends p with rows from the q-ring's row pool until it can hold
// the given level. Rows beyond the requested level are left attached: they
// are scratch, exactly like the inactive rows of a full-chain pooled Poly.
func (ctx *Context) growRows(p *ring.Poly, level int) {
	for len(p.Coeffs) <= level {
		p.Coeffs = append(p.Coeffs, ctx.RingQ.GetRow())
	}
}

// PutCiphertext returns a ciphertext borrowed with GetCiphertext to the pool.
// The caller must not retain any reference to it (or to its polynomials).
// Putting nil or a non-pooled ciphertext is a no-op, so callers may release
// mixed provenance results unconditionally.
func (ctx *Context) PutCiphertext(ct *Ciphertext) {
	if ct == nil || ct.owner != ctx {
		return
	}
	ctx.ctPool.Put(ct)
}

// Pooled reports whether ct came from a context's ciphertext pool.
func (ct *Ciphertext) Pooled() bool { return ct.owner != nil }

// Bytes reports the ciphertext's live coefficient footprint: two R_Q
// polynomials of level+1 residue rows each, 8 bytes per coefficient. This is
// the accounting unit the serving layer charges against a tenant's quota for
// server-resident ciphertext registers — the dual of SwitchingKey.Bytes for
// key material.
func (ct *Ciphertext) Bytes() int64 {
	n := int64(len(ct.C0.Coeffs[0]))
	return 2 * int64(ct.Level+1) * n * 8
}

// CopyNew returns a deep copy of ct as a plain (non-pooled) ciphertext.
func (ct *Ciphertext) CopyNew(ctx *Context) *Ciphertext {
	out := ctx.NewCiphertext(ct.Level, ct.Scale)
	ctx.RingQ.CopyLevel(out.C0, ct.C0, ct.Level)
	ctx.RingQ.CopyLevel(out.C1, ct.C1, ct.Level)
	return out
}

// CopyCiphertext copies src into dst in place — the pooled-allocation dual of
// Ciphertext.CopyNew. A pooled dst grows rows on demand; a plain dst must
// already hold enough rows or the copy errors instead of corrupting memory.
func (ctx *Context) CopyCiphertext(dst, src *Ciphertext) error {
	if dst == src {
		return nil
	}
	if dst.owner != nil {
		ctx.growRows(dst.C0, src.Level)
		ctx.growRows(dst.C1, src.Level)
	} else if dst.C0.Levels() < src.Level || dst.C1.Levels() < src.Level {
		return fmt.Errorf("ckks: CopyCiphertext into a ciphertext with %d rows, need %d",
			dst.C0.Levels()+1, src.Level+1)
	}
	ctx.RingQ.CopyLevel(dst.C0, src.C0, src.Level)
	ctx.RingQ.CopyLevel(dst.C1, src.C1, src.Level)
	dst.Level = src.Level
	dst.Scale = src.Scale
	return nil
}

// copyCiphertextPooled returns a pooled deep copy of ct.
func (ctx *Context) copyCiphertextPooled(ct *Ciphertext) *Ciphertext {
	out := ctx.getCiphertextNoZero(ct.Level, ct.Scale)
	ctx.RingQ.CopyLevel(out.C0, ct.C0, ct.Level)
	ctx.RingQ.CopyLevel(out.C1, ct.C1, ct.Level)
	return out
}

// DropLevel truncates ct to the given lower level without rescaling (the
// scale is unchanged; only residue rows are discarded). On a pooled
// ciphertext the now-unused rows go straight back to the owning ring's
// scratch row pool; on a plain ciphertext they stay attached (they are slices
// of one contiguous allocation and cannot be freed independently).
func (ct *Ciphertext) DropLevel(to int) {
	if to > ct.Level {
		panic(fmt.Sprintf("ckks: DropLevel to %d above current level %d", to, ct.Level))
	}
	ct.Level = to
	if ct.owner != nil {
		releaseRowsAbove(ct.owner.RingQ, ct.C0, to)
		releaseRowsAbove(ct.owner.RingQ, ct.C1, to)
	}
}

func releaseRowsAbove(rq *ring.Ring, p *ring.Poly, level int) {
	for i := len(p.Coeffs) - 1; i > level; i-- {
		rq.PutRow(p.Coeffs[i])
		p.Coeffs[i] = nil
		p.Coeffs = p.Coeffs[:i]
	}
}

// String summarizes the ciphertext's level and scale for diagnostics.
func (ct *Ciphertext) String() string {
	return fmt.Sprintf("Ciphertext{level=%d, logScale=%.2f}", ct.Level, log2f(ct.Scale))
}
