package main

import (
	"math"
	"sort"
	"time"
)

func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }

// median returns the middle of ds (mean of the two middles for even
// counts); zero for no samples.
func median(ds []time.Duration) time.Duration {
	return time.Duration(medianOf(durationsToFloat(ds)))
}

func durationsToFloat(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank never invents a value between two samples,
// which matters for tails with few samples beyond them.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond is how many samples a percentile needs above it before it
// is reported (the choosing-metrics rule).
const samplesBeyond = 10

// hasPercentile reports whether n samples leave at least samplesBeyond
// beyond the p-th percentile.
func hasPercentile(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= samplesBeyond
}

// summary is the sample statistics reported beside every median.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// P90 is present only when at least ten samples lie beyond it.
	P90 *float64 `json:"p90,omitempty"`
}

// summarize reduces timings to a summary in the given unit ("s", "ms" or
// "us").
func summarize(ds []time.Duration, unit string) summary {
	div := map[string]float64{"s": 1e9, "ms": 1e6, "us": 1e3, "ns": 1}[unit]
	if div == 0 {
		div = 1
	}
	xs := durationsToFloat(ds)
	for i := range xs {
		xs[i] /= div
	}
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Median = medianOf(xs)
	if hasPercentile(len(xs), 90) {
		p := percentile(xs, 90)
		s.P90 = &p
	}
	return s
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method), so
// the spreads -compare prints are the ones the acceptance protocol uses.
// ok is false for fewer than two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	m := medianOf(xs)
	if !ok || m == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / m), true
}

// tmultAPerSlotUs is Eq. 8 of the paper: the amortized multiplication time
// per slot, in µs, of a scheme that bootstraps every `len(tmult)` levels,
//
//	T_mult,a/slot = (T_boot + Σ_ℓ T_mult(ℓ)) / (L − L_boot) / (N/2),
//
// with tmult holding T_mult(ℓ) for each of the L − L_boot usable levels.
func tmultAPerSlotUs(tboot time.Duration, tmult []time.Duration, slots int) float64 {
	if len(tmult) == 0 || slots == 0 {
		return 0
	}
	sum := tboot
	for _, t := range tmult {
		sum += t
	}
	return sum.Seconds() * 1e6 / float64(len(tmult)) / float64(slots)
}

// amortizedUs is Eq. 8 for a workload that never bootstraps, in its
// throughput form: the wall time of a stretch of work over the
// multiplicative levels that work consumed and the slots it ran on, in µs.
func amortizedUs(total time.Duration, levels, slots int) float64 {
	if levels == 0 || slots == 0 {
		return 0
	}
	return total.Seconds() * 1e6 / float64(levels) / float64(slots)
}
