package main

import (
	"fmt"
	"math"
	"math/rand"

	"bts/internal/ckks"
)

// party is one key owner's side of the scheme: context, secret key and the
// objects made from it. Every workload has one (serve has one per tenant).
type party struct {
	params  ckks.Parameters
	ctx     *ckks.Context
	kg      *ckks.KeyGenerator
	sk      *ckks.SecretKey
	rlk     *ckks.SwitchingKey
	encoder *ckks.Encoder
	enc     *ckks.Encryptor
	dec     *ckks.Decryptor
}

// newParty builds the context at engineWorkers workers and generates the
// secret and relinearization keys from seed. Spans go under parent.
func newParty(r *run, parent int, lit ckks.ParametersLiteral, seed int64) (*party, error) {
	p := &party{}
	var err error
	r.timed(parent, "ckks.NewContext", func() {
		if p.params, err = ckks.NewParameters(lit); err != nil {
			return
		}
		if p.ctx, err = ckks.NewContext(p.params); err != nil {
			return
		}
		p.ctx.SetWorkers(engineWorkers)
	})
	if err != nil {
		return nil, fmt.Errorf("parameters: %w", err)
	}
	r.timed(parent, "ckks.KeyGen", func() {
		p.kg = ckks.NewKeyGenerator(p.ctx, seed)
		p.sk = p.kg.GenSecretKey()
		p.rlk = p.kg.GenRelinearizationKey(p.sk)
	})
	r.timed(parent, "ckks.NewEncoder", func() {
		p.encoder = ckks.NewEncoder(p.ctx)
	})
	p.enc = ckks.NewEncryptorSK(p.ctx, p.sk, seed+1)
	p.dec = ckks.NewDecryptor(p.ctx, p.sk)
	return p, nil
}

func (p *party) close() {
	if p != nil && p.ctx != nil {
		p.ctx.Close()
	}
}

// encrypt encodes vals at the default scale and encrypts them at level.
func (p *party) encrypt(r *run, parent int, vals []complex128, level int) (*ckks.Ciphertext, error) {
	return p.encryptAt(r, parent, vals, level, p.params.Scale)
}

// encryptAt is encrypt at an explicit encoding scale.
func (p *party) encryptAt(r *run, parent int, vals []complex128, level int, scale float64) (*ckks.Ciphertext, error) {
	var pt *ckks.Plaintext
	var ct *ckks.Ciphertext
	var err error
	r.timed(parent, "ckks.Encode", func() { pt, err = p.encoder.Encode(vals, level, scale) })
	if err != nil {
		return nil, err
	}
	r.timed(parent, "ckks.Encrypt", func() { ct, err = p.enc.EncryptNew(pt) })
	return ct, err
}

// decrypt returns the slots of ct.
func (p *party) decrypt(r *run, parent int, ct *ckks.Ciphertext) []complex128 {
	var out []complex128
	r.timed(parent, "ckks.DecryptDecode", func() { out = p.encoder.Decode(p.dec.DecryptNew(ct)) })
	return out
}

// keyMiB is the evaluation-key footprint: relinearization key plus the
// rotation-key set.
func keyMiB(rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) float64 {
	total := rlk.Bytes()
	if rtks != nil {
		for _, k := range rtks.Keys {
			total += k.Bytes()
		}
	}
	return float64(total) / (1 << 20)
}

// randomSlots draws n complex values with both parts uniform in [-amp, amp].
func randomSlots(rng *rand.Rand, n int, amp float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(amp*(2*rng.Float64()-1), amp*(2*rng.Float64()-1))
	}
	return v
}

// unitSlots draws n values on the unit circle: squaring keeps them there,
// so a ladder of squarings has a float model that neither vanishes nor
// blows up.
func unitSlots(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		s, c := math.Sincos(2 * math.Pi * rng.Float64())
		v[i] = complex(c, s)
	}
	return v
}

// rotated returns v circularly shifted left by k slots, as HRot does.
func rotated(v []complex128, k int) []complex128 {
	n := len(v)
	out := make([]complex128, n)
	for i := range out {
		out[i] = v[((i+k)%n+n)%n]
	}
	return out
}

// sameCiphertext reports whether two ciphertexts are bit-identical.
func sameCiphertext(a, b *ckks.Ciphertext) bool {
	if a.Level != b.Level || a.Scale != b.Scale {
		return false
	}
	for i := 0; i <= a.Level; i++ {
		ra0, rb0 := a.C0.Coeffs[i], b.C0.Coeffs[i]
		ra1, rb1 := a.C1.Coeffs[i], b.C1.Coeffs[i]
		for j := range ra0 {
			if ra0[j] != rb0[j] || ra1[j] != rb1[j] {
				return false
			}
		}
	}
	return true
}
