package ckks

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"bts/internal/ring"
)

// PolyQP is a polynomial with residues over both the q-chain (Q) and the
// special p-chain (P) — the representation of evaluation keys, which live in
// R_PQ (Section 2.3).
type PolyQP struct {
	Q *ring.Poly
	P *ring.Poly
}

// SecretKey is the sparse ternary secret s, stored in the NTT domain over
// the full q- and p-chains.
type SecretKey struct {
	Value PolyQP
}

// PublicKey is an encryption of zero under s: (b, a) = (-a·s + e, a) over the
// full q-chain, NTT domain.
type PublicKey struct {
	Value [2]*ring.Poly
}

// SwitchingKey is a generalized (dnum-decomposed) key-switching key from some
// secret s' to s: dnum pairs (b_j, a_j) over R_PQ where
// b_j = -a_j·s + e_j + P·s'·1_{group j} (Eq. 7 and Section 2.5).
// An evk for HMult has s' = s²; an evk for HRot(r) has s' = σ_{5^r}(s).
//
// Only the b_j halves are stored. Every a_j is uniform and independent of
// the secrets, so the key holds one 32-byte Seed instead: a_j over Q is the
// ring's seeded uniform polynomial with tag 2j, over P the one with tag 2j+1
// (ring.UniformSource), and the key-switch kernel regenerates each row of it
// inside the task that multiplies it (ring.MulKeyPair, which the streaming
// and the hoisted key-switch both run) — half the bytes to hold, upload and
// stream, paid for with PRNG words.
type SwitchingKey struct {
	B    []PolyQP
	Seed [ring.SeedSize]byte
}

// Bytes returns the storage size of the key in bytes: the b half of the
// paper's 2·N·(k+L+1)·dnum words of 8 bytes (Section 2.5, point ii) plus the
// seed. The accelerator model (internal/params) still charges both halves:
// it streams a materialized a, which this library never holds.
func (swk *SwitchingKey) Bytes() int64 {
	if len(swk.B) == 0 {
		return 0
	}
	rows := int64(len(swk.B[0].Q.Coeffs) + len(swk.B[0].P.Coeffs))
	n := int64(len(swk.B[0].Q.Coeffs[0]))
	return int64(len(swk.B))*rows*n*8 + ring.SeedSize
}

// SwitchingKeyBytes is SwitchingKey.Bytes for a key generated under p.
func (p Parameters) SwitchingKeyBytes() int64 {
	return int64(p.N())*int64(len(p.Q)+len(p.P))*int64(p.Dnum)*8 + ring.SeedSize
}

// keyA returns slice j's seeded a_j over Q and over P.
func keyA(src *ring.UniformSource, j int) (q, p ring.UniformPoly) {
	return src.Poly(uint32(2 * j)), src.Poly(uint32(2*j + 1))
}

// RotationKeySet maps Galois elements to their switching keys.
type RotationKeySet struct {
	Keys map[uint64]*SwitchingKey
}

// KeyGenerator produces all key material for a context. The randomness
// source is a deterministic PRNG: this library is a research reproduction of
// the BTS workload, not a hardened cryptographic implementation.
type KeyGenerator struct {
	ctx *Context
	rng *rand.Rand
}

// NewKeyGenerator returns a key generator seeded deterministically.
func NewKeyGenerator(ctx *Context, seed int64) *KeyGenerator {
	return &KeyGenerator{ctx: ctx, rng: rand.New(rand.NewSource(seed))}
}

// GenSecretKey samples a sparse ternary secret of Hamming weight params.H.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	ctx := kg.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	coeffs := make([]int64, rq.N)
	for placed := 0; placed < ctx.Params.H; {
		idx := kg.rng.Intn(rq.N)
		if coeffs[idx] != 0 {
			continue
		}
		if kg.rng.Intn(2) == 0 {
			coeffs[idx] = 1
		} else {
			coeffs[idx] = -1
		}
		placed++
	}
	sk := &SecretKey{Value: PolyQP{
		Q: rq.NewPoly(len(rq.Moduli)),
		P: rp.NewPoly(len(rp.Moduli)),
	}}
	rq.SetInt64Coeffs(sk.Value.Q, coeffs, rq.MaxLevel())
	rp.SetInt64Coeffs(sk.Value.P, coeffs, rp.MaxLevel())
	rq.NTT(sk.Value.Q, rq.MaxLevel())
	rp.NTT(sk.Value.P, rp.MaxLevel())
	return sk
}

// GenPublicKey returns an encryption of zero (b, a) = (-a·s+e, a) over the
// full q-chain.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.ctx
	rq := ctx.RingQ
	lvl := rq.MaxLevel()
	a := rq.NewPolyLevel(lvl)
	rq.SampleUniform(kg.rng, a, lvl)
	e := rq.NewPolyLevel(lvl)
	rq.SampleGaussian(kg.rng, e, ctx.Params.Sigma, lvl)
	rq.NTT(e, lvl)
	b := rq.NewPolyLevel(lvl)
	rq.MulCoeffs(a, sk.Value.Q, b, lvl)
	rq.Neg(b, b, lvl)
	rq.Add(b, e, b, lvl)
	return &PublicKey{Value: [2]*ring.Poly{b, a}}
}

// GenRelinearizationKey returns the evk for HMult (s' = s²).
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *SwitchingKey {
	rq := kg.ctx.RingQ
	s2 := rq.NewPoly(len(rq.Moduli))
	rq.MulCoeffs(sk.Value.Q, sk.Value.Q, s2, rq.MaxLevel())
	return kg.genSwitchingKey(sk, s2)
}

// GenRotationKeys returns switching keys for the given rotation amounts.
// If conjugate is true a key for complex conjugation is included.
func (kg *KeyGenerator) GenRotationKeys(sk *SecretKey, rotations []int, conjugate bool) *RotationKeySet {
	rq := kg.ctx.RingQ
	set := &RotationKeySet{Keys: make(map[uint64]*SwitchingKey)}
	add := func(g uint64) {
		if _, ok := set.Keys[g]; ok {
			return
		}
		sG := rq.NewPoly(len(rq.Moduli))
		rq.AutomorphismNTT(sk.Value.Q, g, sG, rq.MaxLevel())
		set.Keys[g] = kg.genSwitchingKey(sk, sG)
	}
	for _, r := range rotations {
		add(rq.GaloisElement(r))
	}
	if conjugate {
		add(rq.GaloisConjugate())
	}
	return set
}

// genSwitchingKey produces a key switching from sPrime (NTT, full q-chain) to
// sk. For each decomposition group j, the Q-rows belonging to group j carry
// the extra term [P]_{q_i}·s', which is what makes the ModUp-multiply-
// accumulate-ModDown pipeline of Fig. 3(a) recover s'·d + small error.
func (kg *KeyGenerator) genSwitchingKey(sk *SecretKey, sPrime *ring.Poly) *SwitchingKey {
	ctx := kg.ctx
	rq, rp := ctx.RingQ, ctx.RingP
	lq, lp := rq.MaxLevel(), rp.MaxLevel()
	dnum := ctx.Params.Dnum
	swk := &SwitchingKey{B: make([]PolyQP, dnum)}
	for k := 0; k < ring.SeedSize; k += 8 {
		binary.LittleEndian.PutUint64(swk.Seed[k:], kg.rng.Uint64())
	}
	src := ring.NewUniformSource(swk.Seed)
	// a_j is materialized once per slice here, to compute b_j; it is never
	// stored.
	aQ := rq.GetPolyNoZero()
	aP := rp.GetPolyNoZero()
	eCoeffs := make([]int64, rq.N)
	for j := 0; j < dnum; j++ {
		uQ, uP := keyA(src, j)
		rq.ExpandUniform(uQ, aQ, lq)
		rp.ExpandUniform(uP, aP, lp)

		// A single error polynomial must be consistent across both bases.
		eQ := rq.NewPoly(lq + 1)
		eP := rp.NewPoly(lp + 1)
		kg.sampleGaussianInt64(eCoeffs)
		rq.SetInt64Coeffs(eQ, eCoeffs, lq)
		rp.SetInt64Coeffs(eP, eCoeffs, lp)
		rq.NTT(eQ, lq)
		rp.NTT(eP, lp)

		bQ := rq.NewPoly(lq + 1)
		bP := rp.NewPoly(lp + 1)
		rq.MulCoeffs(aQ, sk.Value.Q, bQ, lq)
		rq.Neg(bQ, bQ, lq)
		rq.Add(bQ, eQ, bQ, lq)
		rp.MulCoeffs(aP, sk.Value.P, bP, lp)
		rp.Neg(bP, bP, lp)
		rp.Add(bP, eP, bP, lp)

		lo, hi := ctx.groupRange(j, lq)
		rq.ForEachLimbBlock(hi-lo, func(k, c0, c1 int) {
			i := lo + k
			q := rq.Moduli[i].Q
			br := rq.Moduli[i].BRed
			w := ctx.pModQ[i]
			dst, src := bQ.Coeffs[i], sPrime.Coeffs[i]
			for t := c0; t < c1; t++ {
				dst[t] = addMod(dst[t], br.Mul(w, src[t]), q)
			}
		})
		swk.B[j] = PolyQP{Q: bQ, P: bP}
	}
	rp.PutPoly(aP)
	rq.PutPoly(aQ)
	return swk
}

func (kg *KeyGenerator) sampleGaussianInt64(out []int64) {
	sigma := kg.ctx.Params.Sigma
	for i := range out {
		for {
			v := kg.rng.NormFloat64() * sigma
			if v <= 6*sigma && v >= -6*sigma {
				out[i] = int64(v + 0.5*sign(v))
				break
			}
		}
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

func addMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// Encryptor encrypts plaintexts under a public or secret key.
type Encryptor struct {
	ctx *Context
	rng *rand.Rand
	pk  *PublicKey
	sk  *SecretKey
}

// NewEncryptorPK returns a public-key encryptor.
func NewEncryptorPK(ctx *Context, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, rng: rand.New(rand.NewSource(seed)), pk: pk}
}

// NewEncryptorSK returns a secret-key encryptor (smaller noise, used by most
// tests and by bootstrapping experiments).
func NewEncryptorSK(ctx *Context, sk *SecretKey, seed int64) *Encryptor {
	return &Encryptor{ctx: ctx, rng: rand.New(rand.NewSource(seed)), sk: sk}
}

// EncryptNew encrypts pt at pt.Level.
func (enc *Encryptor) EncryptNew(pt *Plaintext) (*Ciphertext, error) {
	ctx := enc.ctx
	rq := ctx.RingQ
	lvl := pt.Level
	ct := ctx.NewCiphertext(lvl, pt.Scale)
	switch {
	case enc.sk != nil:
		a := rq.GetPolyNoZero()
		rq.SampleUniform(enc.rng, a, lvl)
		e := rq.GetPolyNoZero()
		rq.SampleGaussian(enc.rng, e, ctx.Params.Sigma, lvl)
		rq.NTT(e, lvl)
		rq.MulCoeffs(a, enc.sk.Value.Q, ct.C0, lvl)
		rq.Neg(ct.C0, ct.C0, lvl)
		rq.Add(ct.C0, e, ct.C0, lvl)
		rq.Add(ct.C0, pt.Value, ct.C0, lvl)
		rq.CopyLevel(ct.C1, a, lvl)
		rq.PutPoly(e)
		rq.PutPoly(a)
	case enc.pk != nil:
		u := rq.GetPolyNoZero()
		rq.SampleTernarySparse(enc.rng, u, ctx.Params.H, lvl)
		rq.NTT(u, lvl)
		e0 := rq.GetPolyNoZero()
		e1 := rq.GetPolyNoZero()
		rq.SampleGaussian(enc.rng, e0, ctx.Params.Sigma, lvl)
		rq.SampleGaussian(enc.rng, e1, ctx.Params.Sigma, lvl)
		rq.NTT(e0, lvl)
		rq.NTT(e1, lvl)
		rq.MulCoeffs(enc.pk.Value[0], u, ct.C0, lvl)
		rq.Add(ct.C0, e0, ct.C0, lvl)
		rq.Add(ct.C0, pt.Value, ct.C0, lvl)
		rq.MulCoeffs(enc.pk.Value[1], u, ct.C1, lvl)
		rq.Add(ct.C1, e1, ct.C1, lvl)
		rq.PutPoly(e1)
		rq.PutPoly(e0)
		rq.PutPoly(u)
	default:
		return nil, fmt.Errorf("ckks: encryptor has neither secret nor public key")
	}
	return ct, nil
}

// Decryptor recovers plaintexts with the secret key.
type Decryptor struct {
	ctx *Context
	sk  *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(ctx *Context, sk *SecretKey) *Decryptor {
	return &Decryptor{ctx: ctx, sk: sk}
}

// DecryptNew computes m = c0 + c1·s at the ciphertext's level.
func (dec *Decryptor) DecryptNew(ct *Ciphertext) *Plaintext {
	rq := dec.ctx.RingQ
	p := rq.NewPolyLevel(ct.Level)
	rq.MulCoeffs(ct.C1, dec.sk.Value.Q, p, ct.Level)
	rq.Add(p, ct.C0, p, ct.Level)
	return &Plaintext{Value: p, Level: ct.Level, Scale: ct.Scale}
}
