package ckks

// The paper-parameter instance: Table 2's INS-1 realized as a software
// parameter set. N = 2^17 with a 60-bit base prime, 27 further scale primes
// (L = 27) and dnum = 1, so key-switching uses a single decomposition slice
// over alpha = 28 60-bit special primes. The sparse secret has H = 192 as in
// the paper's bootstrappable instances.
//
// Modulus chain layout. Table 4's budget model sizes every scale prime at 50
// bits (log PQ ≈ 3090). A *functional* bootstrap cannot run its EvalMod at
// working scale 2^50, though: the Chebyshev power basis amplifies the value
// noise of its input by ~deg², and SlotToCoeff forwards that to the
// refreshed message with another ~√slots·(q0/Δ); at 2^16 slots, degree 255
// and q0/Δ = 2^10 a 2^50-scale EvalMod bottoms out near 2^-1 output error.
// Real CKKS bootstrap implementations (including the paper's software
// baseline) therefore allocate base-prime-sized moduli to the bootstrap
// section of the chain and run that span at the larger working scale. This
// instance does the same: levels 17..27 — EvalMod's 8 rescaling levels and
// the 3 CoeffToSlot stages — use 60-bit primes, while levels 1..16 (the 3
// SlotToCoeff stages and the 13 post-refresh multiplication levels) keep
// the model's 50-bit size, so the refreshed ciphertext and all downstream
// arithmetic run at Δ = 2^50 exactly as in Table 4. The Bootstrapper
// detects the section boundary and raises the working scale with an exact
// ×2^10 after ModRaise (see bootScaleBoost), which drops the bootstrap's
// noise floor by the same 2^10. Cost of the deviation: log Q = 1520 instead
// of 1410 (log PQ ≈ 3200 vs 3090); Section 3's security model still puts
// the instance at λ ≈ 129.1 ≥ 128 (`btsparams -preset table2` prints the
// realized chain and margin).
//
// The bootstrap pipeline runs the factored transforms at S = 3 stages per
// direction: 2^16 slots split into radix-64/32/32 stage matrices
// (DFTStageDiags depths 6+5+5 = logSlots), trading 2 extra levels per
// transform against the dense matrix's 2^16 diagonals. Depth budget per
// MinLevels: 3 (CtS) + 8 (EvalMod, the degree-255 sine trimmed to degree
// 209) + 3 (StC) + 1 (margin) = 15 ≤ L = 27; the refreshed ciphertext
// leaves at level 27 − 14 = 13. K = 25 covers the modulus-raise overflow of
// an H = 192 secret with margin (|I| concentrates near sqrt(H) ≈ 14), and
// 2πK ≈ 157 < 255 keeps the Chebyshev sine approximation convergent.

// Table2Literal returns the paper-parameter CKKS instance of Table 2
// (INS-1): N = 2^17, L = 27, dnum = 1, with 60-bit primes on the bootstrap
// section (the levels above Table2BootstrapParams' SlotToCoeff start,
// 17..27) and 50-bit primes elsewhere (see the chain-layout comment above).
func Table2Literal() ParametersLiteral {
	const L = 27
	section := Table2BootstrapParams().stcLevel(L) + 1
	logQ := []int{60}
	for lvl := 1; lvl <= L; lvl++ {
		if lvl >= section {
			logQ = append(logQ, 60)
		} else {
			logQ = append(logQ, 50)
		}
	}
	return ParametersLiteral{
		LogN:     17,
		LogQ:     logQ,
		LogP:     60,
		Dnum:     1,
		LogScale: 50,
		H:        192,
	}
}

// Table2BootstrapParams returns the S = 3 factored bootstrap configuration
// for the Table 2 instance: radix-64/32/32 CoeffToSlot and SlotToCoeff
// chains around a degree-255 scaled-sine EvalMod on the range [-25, 25].
func Table2BootstrapParams() BootstrapParams {
	return BootstrapParams{K: 25, SineDegree: 255, CtSStages: 3, StCStages: 3}
}
