// Command btsparams explores the CKKS parameter space of Section 3: the
// L/dnum/evk-size interplay at fixed security (Fig. 1) and the security of
// arbitrary (N, L, dnum) instances. Usage:
//
//	btsparams -logn 17            # Fig. 1 sweep at N=2^17
//	btsparams -logn 17 -l 27 -dnum 1   # inspect one instance
//	btsparams -preset table2      # the paper instance: chain, radices, key set
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"

	"bts/internal/ckks"
	"bts/internal/params"
)

func main() {
	logN := flag.Int("logn", 17, "log2 of the ring degree")
	l := flag.Int("l", 0, "maximum level L (0 = sweep dnum instead)")
	dnum := flag.Int("dnum", 1, "decomposition number")
	preset := flag.String("preset", "", "named instance to describe (table2)")
	flag.Parse()

	if *preset != "" {
		if *preset != "table2" {
			fmt.Fprintf(os.Stderr, "unknown preset %q (table2)\n", *preset)
			os.Exit(2)
		}
		if err := describeTable2(); err != nil {
			fmt.Fprintln(os.Stderr, "table2:", err)
			os.Exit(1)
		}
		return
	}

	if *l > 0 {
		inst := params.Instance{
			Name: "custom", LogN: *logN, L: *l, Dnum: *dnum,
			LogQ0: 60, LogQi: 50, LogP: 60,
		}
		if err := inst.Validate(); err != nil {
			fmt.Println("invalid instance:", err)
			return
		}
		fmt.Printf("N=2^%d L=%d dnum=%d: k=%d, logPQ=%.0f, λ≈%.1f\n",
			inst.LogN, inst.L, inst.Dnum, inst.K(), inst.LogPQ(), inst.Lambda())
		fmt.Printf("  ct@L    %6.1f MiB\n", float64(inst.CtBytes(inst.L))/(1<<20))
		fmt.Printf("  evk     %6.1f MiB\n", float64(inst.EvkBytesMax())/(1<<20))
		fmt.Printf("  temp    %6.1f MiB\n", float64(inst.TempDataBytes())/(1<<20))
		return
	}

	fmt.Printf("Fig. 1 sweep at N=2^%d, 128-bit security (max dnum = %d):\n", *logN, params.MaxDnum(*logN))
	fmt.Printf("%6s %6s %12s %16s\n", "dnum", "max L", "evk (MiB)", "agg evks (GiB)")
	for _, r := range params.LevelsAndEvkVsDnum(*logN) {
		fmt.Printf("%6d %6d %12.0f %16.2f\n",
			r.Dnum, r.MaxLevel, float64(r.EvkSingleBytes)/(1<<20), float64(r.EvkAggBytes)/(1<<30))
	}
}

// describeTable2 prints the paper-parameter instance (Table 2's INS-1 as
// realized by ckks.Table2Literal): the generated modulus chain with each
// level's special-prime count and the log PQ the top-level key-switch
// actually works over, the S=3 factored-bootstrap stage radices with their
// BSGS rotation plans, and the resulting key-set size. The rotation plan is
// computed statically from the stage diagonal index sets
// (ckks.BSGSRotations) — no plaintext diagonal is encoded, so the command
// stays interactive even at N=2^17.
func describeTable2() error {
	lit := ckks.Table2Literal()
	p, err := ckks.NewParameters(lit)
	if err != nil {
		return err
	}
	bp := ckks.Table2BootstrapParams()
	inst := params.INS1

	fmt.Printf("Table 2 preset (%s): N=2^%d, L=%d, dnum=%d, H=%d, Δ=2^%d\n",
		inst.Name, p.LogN, p.MaxLevel(), p.Dnum, p.H, lit.LogScale)
	fmt.Printf("  logPQ=%.0f bits, λ≈%.1f\n", p.LogQP(), params.SecurityLevel(p.LogN, p.LogQP()))
	fmt.Printf("  ct@L %6.1f MiB, evk %6.1f MiB, temp %6.1f MiB\n",
		float64(inst.CtBytes(inst.L))/(1<<20),
		float64(inst.EvkBytesMax())/(1<<20),
		float64(inst.TempDataBytes())/(1<<20))

	fmt.Printf("modulus chain Q (%d primes), k = special primes a key-switch at the level divides by:\n", len(p.Q))
	for i, q := range p.Q {
		fmt.Printf("  q%-3d %2d-bit  %d  k=%d\n", i, bitLen(q), q, p.SpecialPrimes(i))
	}
	unused := 0.0
	for _, pk := range p.P[p.SpecialPrimes(p.MaxLevel()):] {
		unused += math.Log2(float64(pk))
	}
	fmt.Printf("  top-level key-switch works over logPQ=%.0f of the %.0f bits the keys store (Table 4 models %.0f)\n",
		p.LogQP()-unused, p.LogQP(), inst.LogPQ())
	fmt.Printf("special chain P (%d primes):\n", len(p.P))
	for i, q := range p.P {
		fmt.Printf("  p%-3d %2d-bit  %d\n", i, bitLen(q), q)
	}

	// Stage shapes: the context is needed only for the encoder's slot-domain
	// diagonal factorization; no bootstrapping keys or plaintexts are built.
	ctx, err := ckks.NewContext(p)
	if err != nil {
		return err
	}
	enc := ckks.NewEncoder(ctx)

	union := map[int]bool{}
	describe := func(name string, kind ckks.DFTKind, stages int) error {
		diags, err := enc.DFTStageDiags(kind, stages)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%d stages):\n", name, stages)
		for i, d := range diags {
			keys := make([]int, 0, len(d))
			for k := range d {
				keys = append(keys, k)
			}
			n1, rots := ckks.BSGSRotations(keys, p.Slots())
			for _, r := range rots {
				union[r] = true
			}
			fmt.Printf("  stage %d: %3d diagonals (radix), n1=%d, %d rotations\n",
				i, len(d), n1, len(rots))
		}
		return nil
	}
	if err := describe("CoeffToSlot", ckks.DFTInverse, bp.CtSStages); err != nil {
		return err
	}
	if err := describe("SlotToCoeff", ckks.DFTForward, bp.StCStages); err != nil {
		return err
	}

	// Key set: the rotation union plus the relinearization and conjugation
	// keys, each one switching key of the dnum=1 shape.
	// The library stores each key's b half and a seed (ckks.SwitchingKey);
	// the accelerator model streams both halves.
	nKeys := len(union) + 2
	streamed := float64(nKeys) * float64(inst.EvkBytesMax())
	stored := float64(nKeys) * float64(p.SwitchingKeyBytes())
	fmt.Printf("key set: %d rotation keys + relin + conj = %d keys\n", len(union), nKeys)
	fmt.Printf("  stored (b half + seed): %d × %.1f MiB = %.2f GiB\n",
		nKeys, stored/float64(nKeys)/(1<<20), stored/(1<<30))
	fmt.Printf("  streamed evk the model charges (b and a): %d × %.1f MiB = %.2f GiB\n",
		nKeys, float64(inst.EvkBytesMax())/(1<<20), streamed/(1<<30))
	fmt.Printf("bootstrap depth: %d levels of L=%d (S=%d radix stages/transform, sine degree %d, K=%.0f)\n",
		bp.MinLevels(), p.MaxLevel(), bp.CtSStages, bp.SineDegree, bp.K)
	return nil
}

func bitLen(q uint64) int { return bits.Len64(q) }
