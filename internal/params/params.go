// Package params implements the CKKS parameter-space analysis of Section 3
// of the BTS paper: the interplay between N, L, dnum, the modulus budget
// log PQ, the security level λ, and the resulting ciphertext/evk footprints
// that drive accelerator design (Figs. 1-2, Table 4, Eq. 8 and Eq. 10).
//
// Unlike internal/ckks (which instantiates real rings), this package works
// symbolically on bit sizes, so it covers the paper's full-scale N = 2^17
// instances directly.
package params

import (
	"fmt"
	"math"
)

// WordBytes is the machine word the paper assumes (64-bit residues).
const WordBytes = 8

// Instance describes a CKKS instance by its structural parameters
// (the paper's Table 4 rows and the Fig. 1/2 sweep points).
type Instance struct {
	Name string
	LogN int
	L    int // maximum multiplicative level
	Dnum int // key-switching decomposition number
	// Prime bit-size model: one base prime q0, L working primes, and
	// k = ceil((L+1)/dnum) special primes.
	LogQ0 int
	LogQi int
	LogP  int
}

// Paper instances (Table 4). The modulus model LogQ0/LogQi/LogP = 60/50/60
// reproduces the published log PQ exactly: 3090, 3210 and 3160.
var (
	INS1 = Instance{Name: "INS-1", LogN: 17, L: 27, Dnum: 1, LogQ0: 60, LogQi: 50, LogP: 60}
	INS2 = Instance{Name: "INS-2", LogN: 17, L: 39, Dnum: 2, LogQ0: 60, LogQi: 50, LogP: 60}
	INS3 = Instance{Name: "INS-3", LogN: 17, L: 44, Dnum: 3, LogQ0: 60, LogQi: 50, LogP: 60}

	// INSLattigo approximates the CPU library's default bootstrappable
	// preset (N = 2^16, high decomposition number as in its hybrid
	// key-switching), used by the Fig. 9 ablation's "small BTS".
	INSLattigo = Instance{Name: "INS-Lattigo", LogN: 16, L: 22, Dnum: 6, LogQ0: 60, LogQi: 50, LogP: 60}
)

// PaperInstances lists the Table 4 instances in order.
func PaperInstances() []Instance { return []Instance{INS1, INS2, INS3} }

// N returns the polynomial degree.
func (in Instance) N() int { return 1 << in.LogN }

// Slots returns N/2, the SIMD width of a fully packed ciphertext.
func (in Instance) Slots() int { return 1 << (in.LogN - 1) }

// K returns the number of special primes k = ceil((L+1)/dnum).
func (in Instance) K() int { return (in.L + in.Dnum) / in.Dnum }

// Alpha returns the number of q-primes per decomposition group (= K).
func (in Instance) Alpha() int { return in.K() }

// Beta returns the number of decomposition slices at the given level.
func (in Instance) Beta(level int) int {
	a := in.Alpha()
	return (level + a) / a
}

// LogPQ returns the total modulus bits: log q0 + L·log qi + k·log p.
func (in Instance) LogPQ() float64 {
	return float64(in.LogQ0) + float64(in.L)*float64(in.LogQi) + float64(in.K())*float64(in.LogP)
}

// CtBytes returns the size of a ciphertext at the given level:
// 2 polynomials × (level+1) residue rows × N words (Section 2.2).
func (in Instance) CtBytes(level int) int64 {
	return 2 * int64(level+1) * int64(in.N()) * WordBytes
}

// EvkBytes returns the bytes of evaluation-key material streamed for one
// key-switching at the given level: 2·β(ℓ)·(k+ℓ+1)·N·8, the denominator of
// Eq. 10 (which uses β = dnum at the maximum level).
func (in Instance) EvkBytes(level int) int64 {
	return 2 * int64(in.Beta(level)) * int64(in.K()+level+1) * int64(in.N()) * WordBytes
}

// EvkBytesMax is EvkBytes at the maximum level (the paper's "evk size";
// 112 MiB for INS-1).
func (in Instance) EvkBytesMax() int64 { return in.EvkBytes(in.L) }

// TempDataBytes estimates the peak temporary working set of a key-switching
// at the maximum level, calibrated to the paper's Table 4 column
// (183/304/365 MB for INS-1/2/3): ≈ 4.4 ct-sized rows plus 1.06 extended
// rows per decomposition slice.
func (in Instance) TempDataBytes() int64 {
	rows := 4.4*float64(in.L+1) + 1.06*float64(in.K()+in.L+1)*float64(in.Dnum)
	return int64(rows * float64(in.N()) * WordBytes)
}

// SecurityLevel estimates λ for a given (N, log PQ). It is a monotone fit of
// λ ≈ a·(N/2^17)/logPQ + b calibrated on the paper's published triples
// (N=2^17: logPQ 3090→133.4, 3210→128.7, 3160→130.8), standing in for the
// SparseLWE estimator the authors ran (see DESIGN.md substitutions).
func SecurityLevel(logN int, logPQ float64) float64 {
	if logPQ <= 0 {
		return math.Inf(1)
	}
	scale := float64(int64(1)<<uint(logN)) / float64(1<<17)
	return 388500*scale/logPQ + 7.67
}

// Lambda returns the estimated security level of the instance.
func (in Instance) Lambda() float64 { return SecurityLevel(in.LogN, in.LogPQ()) }

// Validate sanity-checks the instance.
func (in Instance) Validate() error {
	if in.LogN < 10 || in.LogN > 18 {
		return fmt.Errorf("params: LogN=%d outside [10,18]", in.LogN)
	}
	if in.L < 1 {
		return fmt.Errorf("params: L=%d must be ≥ 1", in.L)
	}
	if in.Dnum < 1 || in.Dnum > in.L+1 {
		return fmt.Errorf("params: Dnum=%d outside [1,L+1]", in.Dnum)
	}
	if in.LogQ0 < in.LogQi || in.LogP < in.LogQi {
		return fmt.Errorf("params: prime size model requires q0,p ≥ qi")
	}
	return nil
}

// --- Fig. 1: L and evk size vs dnum at fixed 128-bit security ---------------

// sweepLogQi is the working-prime size used for the Fig. 1/2 sweeps. With
// 52-bit working primes the model reproduces the paper's max-dnum table
// (N=2^15..2^18 → 14, 29, 60, ~121).
const sweepLogQi = 52

// LogPQBudget returns the maximum log PQ keeping λ ≥ target at degree 2^logN
// (inverting SecurityLevel).
func LogPQBudget(logN int, targetLambda float64) float64 {
	scale := float64(int64(1)<<uint(logN)) / float64(1<<17)
	return 388500 * scale / (targetLambda - 7.67)
}

// MaxLevelForDnum returns the largest L such that the modulus budget of a
// 128-bit-secure instance at 2^logN admits the given dnum (Fig. 1a).
// Returns 0 if even L=1 does not fit.
func MaxLevelForDnum(logN, dnum int) int {
	budget := LogPQBudget(logN, 128)
	L := 0
	for l := 1; ; l++ {
		k := (l + dnum) / dnum
		logPQ := 60 + float64(l)*sweepLogQi + float64(k)*60
		if logPQ > budget {
			break
		}
		L = l
	}
	return L
}

// MaxDnum returns the largest usable dnum (= L+1 at k=1) for 2^logN at
// 128-bit security — the paper's Fig. 1 inset table.
func MaxDnum(logN int) int {
	// Self-consistent point: dnum = L+1 with k = 1.
	budget := LogPQBudget(logN, 128)
	l := int((budget - 60 - 60) / sweepLogQi)
	return l + 1
}

// SweepInstance materializes a Fig. 1/2 sweep point at (logN, dnum) with the
// maximum 128-bit-secure L.
func SweepInstance(logN, dnum int) Instance {
	return Instance{
		Name:  fmt.Sprintf("N=2^%d dnum=%d", logN, dnum),
		LogN:  logN,
		L:     MaxLevelForDnum(logN, dnum),
		Dnum:  dnum,
		LogQ0: 60, LogQi: sweepLogQi, LogP: 60,
	}
}

// Fig1Row is one point of Fig. 1: level and evk sizes at (logN, dnum).
type Fig1Row struct {
	LogN, Dnum     int
	MaxLevel       int
	EvkSingleBytes int64 // one evk: 2·N·(k+L+1)·8 per slice × dnum slices
	EvkAggBytes    int64 // the paper's aggregate formula 2·N·(L+1)·(dnum+1)·8
}

// LevelsAndEvkVsDnum generates the Fig. 1 series for one ring degree.
func LevelsAndEvkVsDnum(logN int) []Fig1Row {
	var rows []Fig1Row
	maxD := MaxDnum(logN)
	for dnum := 1; dnum <= maxD; dnum++ {
		l := MaxLevelForDnum(logN, dnum)
		if l == 0 {
			continue
		}
		in := SweepInstance(logN, dnum)
		rows = append(rows, Fig1Row{
			LogN: logN, Dnum: dnum, MaxLevel: l,
			EvkSingleBytes: in.EvkBytesMax(),
			EvkAggBytes:    2 * int64(l+1) * int64(in.N()) * int64(dnum+1) * WordBytes,
		})
	}
	return rows
}
