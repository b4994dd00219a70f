package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"bts/internal/ring"
)

// Encoder maps complex message vectors to plaintext polynomials and back via
// the canonical embedding (the "special FFT" over the 5^j rotation group,
// Section 2.2). Encoding at scales larger than a machine word (needed for
// the bootstrapping matrix constants) transparently switches to a
// multi-precision path.
type Encoder struct {
	ctx      *Context
	m        int          // 2N, the cyclotomic index
	ksiPows  []complex128 // ksiPows[k] = exp(2πi·k/M), k ∈ [0, M]
	rotGroup []int        // 5^i mod M, i ∈ [0, N/2)
}

// NewEncoder builds the FFT tables for the context's ring degree.
func NewEncoder(ctx *Context) *Encoder {
	n := ctx.Params.N()
	m := 2 * n
	e := &Encoder{
		ctx:      ctx,
		m:        m,
		ksiPows:  make([]complex128, m+1),
		rotGroup: make([]int, n/2),
	}
	for k := 0; k <= m; k++ {
		angle := 2 * math.Pi * float64(k) / float64(m)
		e.ksiPows[k] = cmplx.Exp(complex(0, angle))
	}
	g := 1
	for i := 0; i < n/2; i++ {
		e.rotGroup[i] = g
		g = (g * 5) % m
	}
	return e
}

// Slots returns the number of message slots N/2.
func (e *Encoder) Slots() int { return e.ctx.Params.Slots() }

// Encode embeds values (length must divide Slots(); shorter vectors are
// replicated to fill all slots) into a plaintext at the given level and
// scale, returned in the NTT domain.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*Plaintext, error) {
	pt, _, err := e.encode(values, level, scale, false)
	return pt, err
}

// EncodeQP is Encode plus the same integer polynomial reduced over the
// special prefix P_level a key-switch at that level uses (its
// Parameters.SpecialPrimes(level) rows, NTT domain). The P-side residues are
// what the double-hoisted linear transform multiplies against key-switch
// accumulators that are still in the extended basis (the deferred-ModDown
// path); at a lower level it reads a prefix of them.
func (e *Encoder) EncodeQP(values []complex128, level int, scale float64) (*Plaintext, *ring.Poly, error) {
	return e.encode(values, level, scale, true)
}

func (e *Encoder) encode(values []complex128, level int, scale float64, withP bool) (*Plaintext, *ring.Poly, error) {
	n := e.Slots()
	if len(values) == 0 || n%len(values) != 0 {
		return nil, nil, fmt.Errorf("ckks: %d values cannot fill %d slots", len(values), n)
	}
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = values[i%len(values)]
	}
	e.fftSpecialInv(vals)

	rq, rp := e.ctx.RingQ, e.ctx.RingP
	p := rq.NewPolyLevel(level)
	var pP *ring.Poly
	var lp int
	if withP {
		lp = e.ctx.special[level].k - 1
		pP = rp.NewPolyLevel(lp)
	}
	// Use the int64 fast path while |coeff·scale| stays well below 2^62;
	// bootstrapping matrices encoded at multi-prime scales take the
	// big.Int path.
	maxAbs := 0.0
	for _, v := range vals {
		if a := math.Abs(real(v)); a > maxAbs {
			maxAbs = a
		}
		if a := math.Abs(imag(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs*scale < math.Exp2(61) {
		coeffs := make([]int64, rq.N)
		for j := 0; j < n; j++ {
			coeffs[j] = int64(math.Round(real(vals[j]) * scale))
			coeffs[j+n] = int64(math.Round(imag(vals[j]) * scale))
		}
		rq.SetInt64Coeffs(p, coeffs, level)
		if withP {
			rp.SetInt64Coeffs(pP, coeffs, lp)
		}
	} else {
		coeffs := make([]*big.Int, rq.N)
		sc := new(big.Float).SetPrec(256).SetFloat64(scale)
		for j := 0; j < n; j++ {
			coeffs[j] = bigRound(new(big.Float).SetPrec(256).SetFloat64(real(vals[j])), sc)
			coeffs[j+n] = bigRound(new(big.Float).SetPrec(256).SetFloat64(imag(vals[j])), sc)
		}
		rq.SetBigCoeffs(p, coeffs, level)
		if withP {
			rp.SetBigCoeffs(pP, coeffs, lp)
		}
	}
	rq.NTT(p, level)
	if withP {
		rp.NTT(pP, lp)
	}
	return &Plaintext{Value: p, Level: level, Scale: scale}, pP, nil
}

// bigRound returns round(v*scale) as a big integer.
func bigRound(v, scale *big.Float) *big.Int {
	v.Mul(v, scale)
	half := big.NewFloat(0.5)
	if v.Sign() >= 0 {
		v.Add(v, half)
	} else {
		v.Sub(v, half)
	}
	out, _ := v.Int(nil)
	return out
}

// Decode recovers the complex message vector from a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	return e.decodePoly(pt.Value, pt.Level, pt.Scale)
}

func (e *Encoder) decodePoly(p *ring.Poly, level int, scale float64) []complex128 {
	rq := e.ctx.RingQ
	tmp := rq.CopyNew(p, level)
	rq.INTT(tmp, level)
	coeffs := rq.PolyToBigCentered(tmp, level)
	n := e.Slots()
	vals := make([]complex128, n)
	scInv := new(big.Float).SetPrec(256).SetFloat64(scale)
	for j := 0; j < n; j++ {
		re := bigToFloat(coeffs[j], scInv)
		im := bigToFloat(coeffs[j+n], scInv)
		vals[j] = complex(re, im)
	}
	e.fftSpecial(vals)
	return vals
}

func bigToFloat(v *big.Int, scale *big.Float) float64 {
	f := new(big.Float).SetPrec(256).SetInt(v)
	f.Quo(f, scale)
	out, _ := f.Float64()
	return out
}

// fftSpecial is the forward transform (coefficients → slots, used by Decode
// and by the SlotToCoeff matrix construction).
func (e *Encoder) fftSpecial(vals []complex128) {
	n := len(vals)
	bitReverseInPlace(vals)
	for length := 2; length <= n; length <<= 1 {
		lenh, lenq := length>>1, length<<2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * gap
				u := vals[i+j]
				v := vals[i+j+lenh] * e.ksiPows[idx]
				vals[i+j] = u + v
				vals[i+j+lenh] = u - v
			}
		}
	}
}

// fftSpecialInv is the inverse transform (slots → coefficients, used by
// Encode and by the CoeffToSlot matrix construction).
func (e *Encoder) fftSpecialInv(vals []complex128) {
	n := len(vals)
	for length := n; length >= 2; length >>= 1 {
		lenh, lenq := length>>1, length<<2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - (e.rotGroup[j] % lenq)) * gap
				u := vals[i+j] + vals[i+j+lenh]
				v := (vals[i+j] - vals[i+j+lenh]) * e.ksiPows[idx]
				vals[i+j] = u
				vals[i+j+lenh] = v
			}
		}
	}
	bitReverseInPlace(vals)
	inv := complex(1/float64(n), 0)
	for i := range vals {
		vals[i] *= inv
	}
}

func bitReverseInPlace(vals []complex128) {
	n := len(vals)
	j := 0
	for i := 1; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
		}
	}
}

func log2f(x float64) float64 { return math.Log2(x) }
