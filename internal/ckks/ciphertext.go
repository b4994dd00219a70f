package ckks

import (
	"fmt"
	"slices"

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
//   - pooled ciphertexts (Context.GetCiphertext) grow the residue rows a
//     level needs on first use and keep them for life. Whole ciphertexts are
//     the only thing that recycles: PutCiphertext returns one with its rows
//     attached, so a result that is Put allocates nothing the next time
//     round. A pooled ciphertext that is never Put — a serving register
//     value replaced while jobs may still read it — goes to the garbage
//     collector rows and all.
type Ciphertext struct {
	C0, C1 *ring.Poly // b(X), a(X)
	Level  int
	Scale  float64

	// owner is non-nil for pooled ciphertexts and names the context whose
	// ciphertext pool PutCiphertext returns them to.
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
// GetPolyNoZero/PutPoly scratch pools). Return it with PutCiphertext when
// done so the next borrow reuses it, rows included; one never returned goes
// to the garbage collector. A pooled ciphertext is otherwise a drop-in
// replacement for one built by NewCiphertext.
func (ctx *Context) GetCiphertext(level int, scale float64) *Ciphertext {
	ct := ctx.GetCiphertextNoZero(level, scale)
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

// growRows extends p with fresh rows, allocated as one slab, until it can
// hold the given level, and counts each new row as one get and one miss of
// the q-ring's row kind (see SetStats). Rows beyond the requested level stay
// attached: they are scratch, exactly like the inactive rows of a full-chain
// pooled Poly.
func (ctx *Context) growRows(p *ring.Poly, level int) {
	missing := level + 1 - len(p.Coeffs)
	if missing <= 0 {
		return
	}
	n := ctx.RingQ.N
	slab := make([]uint64, missing*n)
	p.Coeffs = slices.Grow(p.Coeffs, missing)
	for i := 0; i < missing; i++ {
		p.Coeffs = append(p.Coeffs, slab[i*n:(i+1)*n:(i+1)*n])
	}
	if st := ctx.stats; st != nil {
		st.PoolQ.RowGets.Add(int64(missing))
		st.PoolQ.RowMisses.Add(int64(missing))
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

// CopyPooled returns a pooled deep copy of ct — the pooled dual of
// Ciphertext.CopyNew.
func (ctx *Context) CopyPooled(ct *Ciphertext) *Ciphertext {
	out := ctx.GetCiphertextNoZero(ct.Level, ct.Scale)
	ctx.RingQ.CopyLevel(out.C0, ct.C0, ct.Level)
	ctx.RingQ.CopyLevel(out.C1, ct.C1, ct.Level)
	return out
}

// DropLevel truncates ct to the given lower level without rescaling (the
// scale is unchanged; only residue rows are discarded). The rows above the
// new level stay attached on either flavor, so growing back allocates
// nothing.
func (ct *Ciphertext) DropLevel(to int) {
	if to > ct.Level {
		panic(fmt.Sprintf("ckks: DropLevel to %d above current level %d", to, ct.Level))
	}
	ct.Level = to
}

// String summarizes the ciphertext's level and scale for diagnostics.
func (ct *Ciphertext) String() string {
	return fmt.Sprintf("Ciphertext{level=%d, logScale=%.2f}", ct.Level, log2f(ct.Scale))
}
