// Package ckks implements the Full-RNS CKKS homomorphic encryption scheme
// (Cheon-Kim-Kim-Song with the RNS optimizations of Section 2 of the BTS
// paper), including the generalized dnum key-switching of Han-Ki (Eq. 7) and
// full bootstrapping (ModRaise → CoeffToSlot → EvalMod → SlotToCoeff).
//
// This is the workload library that the BTS accelerator executes; the
// internal/sim package models how its primitive functions (NTT, iNTT, BConv,
// element-wise ops, automorphism) map onto the accelerator's hardware.
//
// # Hoisted key-switching
//
// Rotation-heavy paths — BSGS linear transforms, and therefore the
// CoeffToSlot/SlotToCoeff phases that dominate bootstrapping — do not pay
// the full key-switch pipeline per rotation. DecomposeNTT runs the
// decomposition half (iNTT → ModUp/BConv → NTT per slice, Fig. 3a) once per
// ciphertext; each rotation of that ciphertext then costs an NTT-domain
// slice permutation plus the multiply-accumulate against its rotation key
// (hoisting, exposed as RotateHoisted — bit-identical to Rotate because the
// centered BConv commutes exactly with the Galois permutation). On top,
// LinearTransform evaluates double-hoisted: baby-step products stay in the
// extended QP basis (each baby's rotated C0 rides along as P·C0), every
// diagonal is folded in there with the key-switch's reduced Montgomery MAC —
// all giant steps in one tiled ring.Fold per basis, each baby's rows read
// once per tile — and each giant step pays a single deferred ModDown per
// ciphertext component. The cost model per transform is
//
//	1 decomposition + (per baby rotation: permutation + MAC)
//	+ (per giant step: 1 ModDown per component + 1 full rotation)
//
// instead of one full key-switch per baby step and one ModDown per diagonal
// group; bsgsSplit weights the BSGS split accordingly (over the transform's
// actual diagonal indices, which is what makes sparse stages cheap). The
// deferred ModDown also *reduces* noise: its rounding enters once per giant
// step, unscaled by the plaintext, instead of once per rotation. The eager
// evaluation survives only in the tests, as the hoisted path's oracle.
//
// # Factored bootstrap transforms
//
// CoeffToSlot and SlotToCoeff are evaluated *factored* (the Table 2 form):
// the encoder's special FFT is split into radix stages (dft.go), each a
// sparse few-diagonal LinearTransform, chained by a TransformChain with one
// rescale between stages. Two stages at 2^9 slots turn a 512-diagonal dense
// matrix into 32+31-diagonal stages — ~1.8× fewer key-switch ops and a
// ~2.2× smaller rotation-key set for one extra level per transform. The
// dense matrices survive only in the tests, as the equivalence oracle.
//
// # One division per multiplication
//
// HMult is a tensor product, a key-switch of its degree-2 term and — almost
// always — a rescale. The key-switch ends by dividing by P (modDown), the
// rescale by dividing by q_ℓ; MulRelinRescale has modDown divide by P·q_ℓ
// in one pass, so the second division's transforms and passes never run.
// Call it wherever the product would be rescaled next; it returns the level
// and scale Rescale(MulRelin(·)) would, and a few units more coefficient
// noise (the base conversion's overflow is no longer divided by q_ℓ — see
// the method's comment). EvalChebyshev, and with it the bootstrap's EvalMod,
// multiplies only this way. MulRelin and Rescale remain, and remain
// bit-identical to what they were.
//
// # Level-aware special modulus
//
// The keys are generated once over the whole special chain P = p_0···p_{α−1},
// which is sized for the digit at the top level. A key-switch at level ℓ
// divides by less: the shortest prefix P_ℓ = p_0···p_{k_ℓ−1} with
//
//	log2 P_ℓ ≥ log2(largest digit at ℓ) + ⌈log2(σ·√N·(α+1))⌉ + 1
//
// (Parameters.SpecialPrimes; the digit is Q_ℓ at dnum = 1). The full-P keys
// serve it unchanged. Reduced mod Q_ℓ·P_ℓ, a switching key with b + a·s =
// e + P·ĝ·s′ is a key for (P/P_ℓ)·s′ with special modulus P_ℓ, so
// multiplying the digit by [(P/P_ℓ)⁻¹]_{q_i} before ModUp gives back d·s′.
// That lift rides on the two copies of the digit the key-switch makes anyway
// (the one the iNTT works on, and each slice's group rows in decompose); where
// k_ℓ = α it is a Shoup product by 1, which is exact, so those levels are
// bit-identical to a full-P switch.
//
// The only new error is D·e/P_ℓ, D the ModUp'd digit: |D| ≤ (α+1)/2 times the
// digit, e·D has coefficients of size about σ·√N·|D|, and the margin puts P_ℓ
// at least 2·σ·√N·(α+1) times above the digit, so the term stays under a
// quarter unit per coefficient. ModDown's own rounding is one overflow unit
// per coefficient, up to (k_ℓ+1)/2 of them, times the secret — more than ten
// times larger. What shrinks is everything proportional to the special
// limbs: ModUp's BConv targets, ModDown's BConv sources, one NTT and one iNTT
// per dropped p-row, and the evk rows read. At Table 2's dnum = 1 k_ℓ runs
// from 26 of 28 at the top level down to 2 at level 0; a product at level 21
// does 1322 BConv multiply-adds per coefficient instead of 1834, and 126 row
// transforms instead of 150. The dnum ≥ 3 shapes in the benchmark keep k_ℓ = α
// from level 2 up: their group digit already fills P.
//
// # Montgomery ring core
//
// Every polynomial this package holds in RNS residues — ciphertext
// components, plaintexts, switching keys, decomposition slices — is stored
// in Montgomery form (x·R mod q, R = 2^64; see internal/ring's package
// doc). The invariant is maintained entirely by the ring layer: residues
// enter M-form where they are born (encoding's SetBigCoeffs/SetInt64Coeffs,
// uniform/ternary/Gaussian sampling) and leave it only at decode time and
// on the wire (internal/wire transports true
// canonical residues). This package never converts forms itself — the
// algebra keeps every evaluator path consistent, because multiplying two
// M-form operands with a fused REDC yields an M-form product, while
// multiplying by a *plain* precomputed constant (P_ℓ, P_ℓ^-1 and the lift
// (P/P_ℓ)^-1 via their Shoup companions, rescale q_ℓ^-1) is form-preserving:
// (x·R)·c mod q is (x·c)·R mod q. The payoff is one 3-multiply reduction per
// butterfly, MAC and element-wise product where the Barrett path paid
// roughly twice that.
package ckks

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"bts/internal/mod"
	"bts/internal/ring"
	"bts/internal/telemetry"
)

// Parameters fully determines a CKKS instance (the paper's Table 2 symbols).
type Parameters struct {
	// LogN is log2 of the polynomial degree N.
	LogN int
	// Q is the prime modulus chain q_0..q_L (L+1 primes).
	Q []uint64
	// P is the special prime chain p_0..p_{k-1} used by key-switching. Keys
	// are generated over all of it; a key-switch at level ℓ divides by the
	// prefix of SpecialPrimes(ℓ) primes only (see "Level-aware special
	// modulus" in the package doc).
	P []uint64
	// Dnum is the key-switching decomposition number (Eq. 7). The number of
	// special primes k must equal ceil((L+1)/Dnum).
	Dnum int
	// Scale is the default encoding scale Δ.
	Scale float64
	// H is the Hamming weight of the sparse ternary secret.
	H int
	// Sigma is the standard deviation of the LWE error distribution.
	Sigma float64
}

// N returns the polynomial degree.
func (p Parameters) N() int { return 1 << p.LogN }

// Slots returns the number of message slots N/2.
func (p Parameters) Slots() int { return 1 << (p.LogN - 1) }

// MaxLevel returns L, the maximum multiplicative level.
func (p Parameters) MaxLevel() int { return len(p.Q) - 1 }

// Alpha returns the number of primes per decomposition group, equal to the
// number of special primes k = (L+1)/dnum (Section 2.5).
func (p Parameters) Alpha() int { return (p.MaxLevel() + p.Dnum) / p.Dnum }

// Beta returns the number of decomposition groups spanned by a ciphertext at
// the given level: ceil((level+1)/alpha). At the maximum level this is Dnum.
func (p Parameters) Beta(level int) int {
	a := p.Alpha()
	return (level + 1 + a - 1) / a
}

// SpecialPrimes returns k_ℓ, the number of special primes a key-switch at
// the given level divides by: the shortest prefix P_ℓ = p_0···p_{k_ℓ−1} of P
// with
//
//	log2 P_ℓ ≥ log2(largest digit at ℓ) + ⌈log2(σ·√N·(α+1))⌉ + 1,
//
// the digit being the product of a decomposition group's primes up to ℓ (Q_ℓ
// itself at dnum = 1). If no prefix clears the bound, or σ is not positive,
// it is all of P. The margin is what keeps the key-reduction error D·e/P_ℓ
// below the ModDown rounding; the package doc derives it.
func (p Parameters) SpecialPrimes(level int) int {
	if !(p.Sigma > 0) {
		return len(p.P)
	}
	a := p.Alpha()
	digit := 0.0
	for lo := 0; lo <= level; lo += a {
		bits := 0.0
		for i := lo; i < lo+a && i <= level; i++ {
			bits += math.Log2(float64(p.Q[i]))
		}
		digit = math.Max(digit, bits)
	}
	need := digit + math.Ceil(math.Log2(p.Sigma*math.Sqrt(float64(p.N()))*float64(a+1))) + 1
	have := 0.0
	for k, pk := range p.P {
		if have += math.Log2(float64(pk)); have >= need {
			return k + 1
		}
	}
	return len(p.P)
}

// LogQP returns log2 of the full modulus product P·Q, the quantity that
// (together with N) determines the security level λ (Section 2.5).
func (p Parameters) LogQP() float64 {
	s := 0.0
	for _, q := range p.Q {
		s += math.Log2(float64(q))
	}
	for _, q := range p.P {
		s += math.Log2(float64(q))
	}
	return s
}

// Validate checks internal consistency of the parameter set.
func (p Parameters) Validate() error {
	if p.LogN < 4 || p.LogN > 17 {
		return fmt.Errorf("ckks: LogN=%d outside [4,17]", p.LogN)
	}
	if len(p.Q) == 0 {
		return fmt.Errorf("ckks: empty modulus chain")
	}
	if p.Dnum < 1 || p.Dnum > len(p.Q) {
		return fmt.Errorf("ckks: Dnum=%d outside [1,L+1=%d]", p.Dnum, len(p.Q))
	}
	if len(p.P) != p.Alpha() {
		return fmt.Errorf("ckks: got %d special primes, need alpha=%d", len(p.P), p.Alpha())
	}
	if p.Scale < 2 {
		return fmt.Errorf("ckks: scale %f too small", p.Scale)
	}
	if p.H < 1 || p.H >= p.N() {
		return fmt.Errorf("ckks: secret Hamming weight %d outside (0,N)", p.H)
	}
	seen := map[uint64]bool{}
	for _, q := range append(append([]uint64{}, p.Q...), p.P...) {
		if seen[q] {
			return fmt.Errorf("ckks: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	return nil
}

// ParametersLiteral describes a parameter set by prime bit-sizes; the actual
// NTT-friendly primes are generated on construction.
type ParametersLiteral struct {
	LogN     int
	LogQ     []int // bit sizes of q_0..q_L
	LogP     int   // bit size of every special prime
	Dnum     int
	LogScale int
	H        int
	Sigma    float64
}

// NewParameters generates the prime chains described by the literal and
// returns the resulting Parameters.
func NewParameters(lit ParametersLiteral) (Parameters, error) {
	if lit.Sigma == 0 {
		lit.Sigma = 3.2
	}
	// Group requested q-sizes so equal sizes share one generation sweep and
	// all primes stay distinct.
	bySize := map[int]int{}
	for _, lq := range lit.LogQ {
		bySize[lq]++
	}
	alpha := (len(lit.LogQ) + lit.Dnum - 1) / lit.Dnum
	bySize[lit.LogP] += alpha // specials share the sweep with same-sized q primes
	generated := map[int][]uint64{}
	for size, count := range bySize {
		ps, err := mod.GenerateNTTPrimes(size, lit.LogN, count)
		if err != nil {
			return Parameters{}, err
		}
		generated[size] = ps
	}
	next := func(size int) uint64 {
		ps := generated[size]
		q := ps[0]
		generated[size] = ps[1:]
		return q
	}
	p := Parameters{
		LogN:  lit.LogN,
		Dnum:  lit.Dnum,
		Scale: math.Exp2(float64(lit.LogScale)),
		H:     lit.H,
		Sigma: lit.Sigma,
	}
	for _, lq := range lit.LogQ {
		p.Q = append(p.Q, next(lq))
	}
	for i := 0; i < alpha; i++ {
		p.P = append(p.P, next(lit.LogP))
	}
	if err := p.Validate(); err != nil {
		return Parameters{}, err
	}
	return p, nil
}

// Context carries the rings and cached conversion tables for a parameter set.
// It is the entry point for building encoders, key generators, encryptors and
// evaluators. Each context owns one execution engine (a limb-parallel worker
// pool, see ring.Engine), shared by the q-ring, the p-ring, and every cached
// BasisExtender; SetWorkers swaps it for the whole context at once. The
// engine's workers stop when the context is garbage-collected.
type Context struct {
	Params Parameters
	RingQ  *ring.Ring // R over the q-chain
	RingP  *ring.Ring // R over the special p-chain

	pModQ []uint64 // [P]_{q_i}: switching-key generation

	// special[ℓ] is the special modulus a key-switch at level ℓ uses.
	special []*specialModulus

	// cacheMu guards the lazily-populated extender caches below so several
	// ciphertexts can be evaluated concurrently on one context (the serving
	// runtime runs many jobs at once per context).
	cacheMu      sync.RWMutex
	modUpCache   map[[2]int]*ring.BasisExtender // (group j, level) → extender
	modDownCache map[[3]int]*modDownTables      // (level, drop, k) → divisor tables

	// raiseExt converts the q0 row onto q_1..q_L: ModRaise's BConv (nil on a
	// one-prime chain).
	raiseExt *ring.BasisExtender

	engine *ring.Engine

	// stats, when non-nil, is the telemetry bundle the engine and both rings
	// count into (see SetStats); kept so engine swaps reattach it.
	stats *telemetry.ContextStats

	// cumLogQ[l] = log2(q_0···q_l), precomputed for NoiseMargin (noise.go).
	cumLogQ []float64

	// ctPool recycles pooled ciphertexts (see GetCiphertext/PutCiphertext)
	// with the residue rows they have grown, which they keep for life.
	ctPool sync.Pool
}

// NewContext builds the rings and precomputed tables for params. The context
// starts on its own engine of runtime.GOMAXPROCS(0) workers; call SetWorkers
// to pick a specific worker count or to force serial execution.
func NewContext(params Parameters) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	rq, err := ring.NewRing(params.LogN, params.Q)
	if err != nil {
		return nil, err
	}
	rp, err := ring.NewRing(params.LogN, params.P)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		Params:       params,
		RingQ:        rq,
		RingP:        rp,
		modUpCache:   make(map[[2]int]*ring.BasisExtender),
		modDownCache: make(map[[3]int]*modDownTables),
	}
	if len(rq.Moduli) > 1 {
		if ctx.raiseExt, err = ring.NewBasisExtender(rq.Moduli[:1], rq.Moduli[1:]); err != nil {
			return nil, err
		}
	}
	ctx.cumLogQ = make([]float64, len(params.Q))
	logQ := 0.0
	for i, q := range params.Q {
		logQ += math.Log2(float64(q))
		ctx.cumLogQ[i] = logQ
	}
	ctx.pModQ = newSpecialModulus(params, params.MaxLevel(), len(params.P)).pModQ
	ctx.special = make([]*specialModulus, len(params.Q))
	for l := range ctx.special {
		ctx.special[l] = newSpecialModulus(params, l, params.SpecialPrimes(l))
	}
	ctx.setEngine(ring.NewEngine(runtime.GOMAXPROCS(0)))
	return ctx, nil
}

// specialModulus is what a key-switch at level ℓ needs of its special
// modulus P_ℓ = p_0···p_{k−1}, k = Parameters.SpecialPrimes(ℓ). Each table
// holds one constant per q-prime of the level, i ∈ [0, ℓ].
type specialModulus struct {
	k int

	// pModQ is [P_ℓ]_{q_i}: HMult lifts d0, d1 into the QP_ℓ basis with it.
	pModQ, pModQShoup []uint64
	// lift is [(P/P_ℓ)^-1]_{q_i}: the digit is multiplied by it before
	// ModUp, because the keys carry P·s′, which over Q_ℓ·P_ℓ is P_ℓ times
	// (P/P_ℓ)·s′. It is 1 where k = len(P).
	lift, liftShoup []uint64
}

func newSpecialModulus(params Parameters, level, k int) *specialModulus {
	n := level + 1
	s := &specialModulus{
		k:          k,
		pModQ:      make([]uint64, n),
		pModQShoup: make([]uint64, n),
		lift:       make([]uint64, n),
		liftShoup:  make([]uint64, n),
	}
	for i, q := range params.Q[:n] {
		head, tail := uint64(1), uint64(1)
		for j, pj := range params.P {
			if j < k {
				head = mod.Mul(head, pj%q, q)
			} else {
				tail = mod.Mul(tail, pj%q, q)
			}
		}
		s.pModQ[i], s.pModQShoup[i] = head, mod.ShoupPrecomp(head, q)
		s.lift[i] = mod.Inv(tail, q)
		s.liftShoup[i] = mod.ShoupPrecomp(s.lift[i], q)
	}
	return s
}

// SetWorkers rebuilds the context's execution engine with the given worker
// count and attaches it to both rings and every cached basis extender.
// n <= 1 (and in particular 0) selects the serial fallback; by default a
// fresh context runs on GOMAXPROCS workers. The new engine starts at the
// default coefficient-block size (RingQ.Exec().SetBlockSize changes it), and
// the workers of the one it replaces stop once it is collected. Must not be
// called concurrently with homomorphic operations on this context.
func (ctx *Context) SetWorkers(n int) {
	ctx.setEngine(ring.NewEngine(n))
}

// setEngine attaches e to both rings and every basis extender.
func (ctx *Context) setEngine(e *ring.Engine) {
	ctx.engine = e
	ctx.RingQ.SetEngine(e)
	ctx.RingP.SetEngine(e)
	if ctx.raiseExt != nil {
		ctx.raiseExt.SetEngine(e)
	}
	ctx.cacheMu.Lock()
	for _, be := range ctx.modUpCache {
		be.SetEngine(e)
	}
	for _, t := range ctx.modDownCache {
		t.ext.SetEngine(e)
	}
	ctx.cacheMu.Unlock()
	ctx.attachStats()
}

// SetStats attaches a telemetry bundle to the context: the execution engine
// counts dispatch/steal activity into st.Engine and the two rings count
// scratch-pool traffic into st.PoolQ/st.PoolP. nil detaches. The engine is
// the context's own, so its counters count only this context's work.
// Attachment survives later SetWorkers calls; after Close (a serial context)
// only pool traffic is counted. Must not be called concurrently with
// homomorphic operations.
func (ctx *Context) SetStats(st *telemetry.ContextStats) {
	ctx.stats = st
	ctx.attachStats()
}

// attachStats points the current engine and both rings at the context's stats
// bundle (or detaches them when it is nil).
func (ctx *Context) attachStats() {
	var es *telemetry.EngineStats
	var pq, pp *telemetry.PoolStats
	if ctx.stats != nil {
		es, pq, pp = &ctx.stats.Engine, &ctx.stats.PoolQ, &ctx.stats.PoolP
	}
	ctx.engine.SetStats(es)
	ctx.RingQ.SetPoolStats(pq)
	ctx.RingP.SetPoolStats(pp)
}

// Workers reports the context's effective worker count (0 = serial).
func (ctx *Context) Workers() int { return ctx.engine.Workers() }

// Close detaches the context's engine, so its workers stop once it is
// collected, and leaves the context usable: it runs serially afterwards.
// Dropping a context frees its engine as well, so Close is never required.
func (ctx *Context) Close() { ctx.setEngine(nil) }

// groupRange returns the q-prime index range [lo,hi] of decomposition group j
// at the given level.
func (ctx *Context) groupRange(j, level int) (lo, hi int) {
	a := ctx.Params.Alpha()
	lo = j * a
	hi = (j+1)*a - 1
	if hi > level {
		hi = level
	}
	return lo, hi
}

// modUpExtender returns the BasisExtender converting group j's primes to the
// rest of the active basis (other q primes + the level's special prefix
// P_level), caching by (group, level). Safe for concurrent use.
func (ctx *Context) modUpExtender(j, level int) *ring.BasisExtender {
	key := [2]int{j, level}
	ctx.cacheMu.RLock()
	be, ok := ctx.modUpCache[key]
	ctx.cacheMu.RUnlock()
	if ok {
		return be
	}
	lo, hi := ctx.groupRange(j, level)
	var from, to []*ring.Modulus
	from = append(from, ctx.RingQ.Moduli[lo:hi+1]...)
	for i := 0; i <= level; i++ {
		if i < lo || i > hi {
			to = append(to, ctx.RingQ.Moduli[i])
		}
	}
	to = append(to, ctx.RingP.Moduli[:ctx.special[level].k]...)
	be, err := ring.NewBasisExtender(from, to)
	if err != nil {
		panic(fmt.Sprintf("ckks: modUpExtender(%d,%d): %v", j, level, err))
	}
	ctx.cacheMu.Lock()
	if prior, ok := ctx.modUpCache[key]; ok {
		be = prior // another goroutine won the build race
	} else {
		be.SetEngine(ctx.engine)
		ctx.modUpCache[key] = be
	}
	ctx.cacheMu.Unlock()
	return be
}

// modDownTables is what one division (divRound) needs to divide by D = P_k·
// q_{level-drop+1}···q_level: the extender from D's basis — the special
// prefix p_0..p_{k−1}, then the dropped q-primes in chain order — onto the
// surviving q-basis, and [D^-1]_{q_i} with its Shoup companions for each
// surviving prime.
type modDownTables struct {
	ext           *ring.BasisExtender
	inv, invShoup []uint64
}

// modDownTables returns the tables of the division of a level-`level`
// extended polynomial by k special primes and its last `drop` q-primes,
// cached per (level, drop, k): k = k_level for a key-switch's ModDown, 0 for
// a Rescale. Safe for concurrent use.
func (ctx *Context) modDownTables(level, drop, k int) *modDownTables {
	key := [3]int{level, drop, k}
	ctx.cacheMu.RLock()
	t, ok := ctx.modDownCache[key]
	ctx.cacheMu.RUnlock()
	if ok {
		return t
	}
	keep := level - drop + 1 // surviving q-primes
	from := append(append([]*ring.Modulus(nil), ctx.RingP.Moduli[:k]...), ctx.RingQ.Moduli[keep:level+1]...)
	ext, err := ring.NewBasisExtender(from, ctx.RingQ.Moduli[:keep])
	if err != nil {
		panic(fmt.Sprintf("ckks: modDownTables(%d,%d,%d): %v", level, drop, k, err))
	}
	t = &modDownTables{ext: ext, inv: make([]uint64, keep), invShoup: make([]uint64, keep)}
	for i := range t.inv {
		q := ctx.RingQ.Moduli[i].Q
		d := uint64(1)
		for _, m := range from {
			d = mod.Mul(d, m.Q%q, q)
		}
		inv := mod.Inv(d, q)
		t.inv[i], t.invShoup[i] = inv, mod.ShoupPrecomp(inv, q)
	}
	ctx.cacheMu.Lock()
	if prior, ok := ctx.modDownCache[key]; ok {
		t = prior // another goroutine won the build race
	} else {
		t.ext.SetEngine(ctx.engine)
		ctx.modDownCache[key] = t
	}
	ctx.cacheMu.Unlock()
	return t
}
