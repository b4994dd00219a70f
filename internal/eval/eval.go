// Package eval regenerates every table and figure of the BTS paper's
// evaluation (Section 6) from this repository's models: the parameter
// analysis (Figs. 1-2), the complexity breakdown (Fig. 3b), the hardware
// tables (Tables 3-4), the simulator-driven results (Figs. 6-10, Tables
// 5-6) and the §6.3 slowdown discussion. Each experiment returns structured
// rows so that the root benchmark harness (bench_test.go) and EXPERIMENTS.md
// share one source of truth.
package eval

import (
	"fmt"
	"strings"

	"bts/internal/arch"
	"bts/internal/baseline"
	"bts/internal/params"
	"bts/internal/sim"
	"bts/internal/workload"
)

// --- Table 1 -----------------------------------------------------------------

// Table1Row compares platforms on bootstrappable-FHE throughput.
type Table1Row struct {
	Platform    string
	LogN        int
	Slots       int
	Bootstrap   bool
	Parallelism string
	MultPerSec  float64
}

// Table1 reproduces the cross-platform comparison. BTS's row is measured
// with the simulator on INS-2 (the paper's best instance).
func Table1() []Table1Row {
	var rows []Table1Row
	for _, p := range baseline.All() {
		rows = append(rows, Table1Row{
			Platform: p.Name, LogN: p.LogN, Slots: p.Slots,
			Bootstrap: p.Bootstrap, Parallelism: p.Parallelism,
			MultPerSec: 1 / p.TmultASlot,
		})
	}
	s := sim.New(arch.Default(), params.INS2)
	t, err := s.AmortizedMultPerSlot(workload.PaperBootstrapShape())
	if err != nil {
		panic(err)
	}
	rows = append(rows, Table1Row{
		Platform: "BTS (this work)", LogN: 17, Slots: 65536,
		Bootstrap: true, Parallelism: "CLP", MultPerSec: 1 / t,
	})
	return rows
}

// --- Fig. 1 ------------------------------------------------------------------

// Fig1 returns the L-vs-dnum and evk-size-vs-dnum series for the four ring
// degrees of the figure.
func Fig1() map[int][]params.Fig1Row {
	out := map[int][]params.Fig1Row{}
	for _, logN := range []int{15, 16, 17, 18} {
		out[logN] = params.LevelsAndEvkVsDnum(logN)
	}
	return out
}

// --- Fig. 2 ------------------------------------------------------------------

// Fig2Row is one sweep point: a CKKS instance's security and its
// minimum-bound amortized mult time at 1 TB/s.
type Fig2Row struct {
	LogN, L, Dnum int
	Lambda        float64
	TmultASlotNs  float64
	Feasible      bool // false when L < L_boot (below the Fig. 1 dotted line)
}

// Fig2 sweeps (N, dnum) points at 128-bit security like the paper's Fig. 2.
func Fig2() []Fig2Row {
	var rows []Fig2Row
	for _, logN := range []int{15, 16, 17, 18} {
		maxD := params.MaxDnum(logN)
		for dnum := 1; dnum <= maxD; dnum++ {
			inst := params.SweepInstance(logN, dnum)
			if inst.L < 1 {
				continue
			}
			row := Fig2Row{LogN: logN, L: inst.L, Dnum: dnum, Lambda: inst.Lambda()}
			// The sweep uses the paper's 19-level bootstrapping throughout;
			// instances that cannot afford it are infeasible (the dotted
			// line of Fig. 1a).
			shape := workload.PaperBootstrapShape()
			t, err := sim.MinBoundMultPerSlot(inst, shape, 1e12)
			if err != nil {
				rows = append(rows, row)
				continue
			}
			row.Feasible = true
			row.TmultASlotNs = t * 1e9
			rows = append(rows, row)
		}
	}
	return rows
}

// --- Fig. 3(b) ---------------------------------------------------------------

// Fig3bRow is the computational-complexity breakdown of HMult for one dnum.
type Fig3bRow struct {
	Dnum                      int
	BConvPct, NTTPct, INTTPct float64
	OthersPct                 float64
}

// Fig3b computes the relative op counts of the key-switching pipeline at
// N = 2^17 and 128-bit security for increasing dnum, reproducing the trend
// that BConv grows from ~12% at dnum=max to ~34% at dnum=1.
func Fig3b() []Fig3bRow {
	var rows []Fig3bRow
	maxD := params.MaxDnum(17)
	for _, dnum := range []int{1, 3, 6, 14, maxD} {
		inst := params.SweepInstance(17, dnum)
		n := float64(inst.N())
		logN := float64(inst.LogN)
		L := inst.L
		k := inst.K()
		alpha := float64(inst.Alpha())
		rows64 := float64(k + L + 1)
		lrows := float64(L + 1)
		beta := float64(inst.Beta(L))

		// Modular multiplications per function (the unit of Fig. 3b).
		nttMults := (beta + 1) * rows64 * n / 2 * logN // forward NTTs
		inttMults := (lrows + 2*float64(k)) * n / 2 * logN
		bconvMults := (beta*alpha*(rows64-alpha) + 2*float64(k)*lrows) * n * 1.1
		others := (2*beta*rows64*2 + 4*lrows) * n

		total := nttMults + inttMults + bconvMults + others
		rows = append(rows, Fig3bRow{
			Dnum:      dnum,
			BConvPct:  100 * bconvMults / total,
			NTTPct:    100 * nttMults / total,
			INTTPct:   100 * inttMults / total,
			OthersPct: 100 * others / total,
		})
	}
	return rows
}

// --- Tables 3 and 4 ----------------------------------------------------------

// Table3 re-exports the hardware area/power model.
func Table3() []arch.Component { return arch.Table3() }

// Table4Row describes one evaluation instance.
type Table4Row struct {
	Name          string
	LogN, L, Dnum int
	LogPQ         float64
	Lambda        float64
	TempDataMB    float64
	EvkMB         float64
	CtMB          float64
}

// Table4 reproduces the instance table (plus derived footprints).
func Table4() []Table4Row {
	var rows []Table4Row
	for _, in := range params.PaperInstances() {
		rows = append(rows, Table4Row{
			Name: in.Name, LogN: in.LogN, L: in.L, Dnum: in.Dnum,
			LogPQ:      in.LogPQ(),
			Lambda:     in.Lambda(),
			TempDataMB: float64(in.TempDataBytes()) / (1 << 20),
			EvkMB:      float64(in.EvkBytesMax()) / (1 << 20),
			CtMB:       float64(in.CtBytes(in.L)) / (1 << 20),
		})
	}
	return rows
}

// --- Fig. 6 ------------------------------------------------------------------

// Fig6Row is one platform/instance point of the Tmult comparison.
type Fig6Row struct {
	System       string
	TmultASlotNs float64
	SpeedupVsCPU float64
}

// Fig6 compares BTS (simulated, 512 MB scratchpad) with the baselines.
func Fig6() []Fig6Row {
	var rows []Fig6Row
	cpu := baseline.Lattigo.TmultASlot
	for _, p := range baseline.All() {
		rows = append(rows, Fig6Row{p.Name, p.TmultASlot * 1e9, cpu / p.TmultASlot})
	}
	for _, inst := range params.PaperInstances() {
		s := sim.New(arch.Default(), inst)
		t, err := s.AmortizedMultPerSlot(workload.PaperBootstrapShape())
		if err != nil {
			panic(err)
		}
		rows = append(rows, Fig6Row{"BTS " + inst.Name, t * 1e9, cpu / t})
	}
	return rows
}

// --- Fig. 7 ------------------------------------------------------------------

// Fig7aRow compares the minimum bound with simulated Tmult at two
// scratchpad capacities.
type Fig7aRow struct {
	Instance   string
	MinBoundNs float64
	With512MNs float64
	With2GNs   float64
}

// Fig7a reproduces the scratchpad-capacity study.
func Fig7a() []Fig7aRow {
	shape := workload.PaperBootstrapShape()
	var rows []Fig7aRow
	for _, inst := range params.PaperInstances() {
		mb, err := sim.MinBoundMultPerSlot(inst, shape, 1e12)
		if err != nil {
			panic(err)
		}
		hw := arch.Default()
		s512 := sim.New(hw, inst)
		t512, err := s512.AmortizedMultPerSlot(shape)
		if err != nil {
			panic(err)
		}
		hw2g := hw
		hw2g.ScratchpadBytes = 2 << 30
		s2g := sim.New(hw2g, inst)
		t2g, err := s2g.AmortizedMultPerSlot(shape)
		if err != nil {
			panic(err)
		}
		rows = append(rows, Fig7aRow{
			Instance: inst.Name, MinBoundNs: mb * 1e9,
			With512MNs: t512 * 1e9, With2GNs: t2g * 1e9,
		})
	}
	return rows
}

// Fig7bRow is the bootstrapping share of one application's runtime (INS-1).
type Fig7bRow struct {
	App          string
	BootstrapPct float64
}

// Fig7b measures the bootstrapping fraction per application on INS-1.
func Fig7b() []Fig7bRow {
	inst := params.INS1
	shape := workload.PaperBootstrapShape()
	traces := []workload.Trace{
		workload.AmortizedMultTrace(inst, shape),
		workload.HELRTrace(inst, shape, workload.DefaultHELR()),
		workload.ResNet20Trace(inst, shape, workload.DefaultResNet()),
		workload.SortingTrace(inst, shape, workload.DefaultSorting()),
	}
	var rows []Fig7bRow
	for _, tr := range traces {
		s := sim.New(arch.Default(), inst)
		st := s.RunTrace(tr)
		rows = append(rows, Fig7bRow{App: tr.Name, BootstrapPct: 100 * st.BootTime / st.Time})
	}
	return rows
}

// --- Fig. 8 ------------------------------------------------------------------

// Fig8Result is the HMult timeline on INS-1 (with resident operands).
type Fig8Result struct {
	Events       []sim.TimelineEvent
	TotalUs      float64
	HBMUtilPct   float64
	NTTUUtilPct  float64
	BConvUtilPct float64
}

// Fig8 expands a single top-level HMult with resident operands and captures
// the phase breakdown, mirroring the paper's Fig. 8 (HMult latency = the evk
// load ≈ 128 µs on INS-1; HBM ≈ 98% busy, NTTUs ≈ 76%, BConvU ≈ 33%).
func Fig8() Fig8Result {
	inst := params.INS1
	s := sim.New(arch.Default(), inst)
	op := workload.Op{Kind: workload.HMult, Level: inst.L, CtIn: []int{1, 2}, CtOut: 3}
	hbm, ntt, bconv, elt, noc, total := s.OpBreakdown(op)
	events := []sim.TimelineEvent{
		{Op: "HMult", Phase: "evk-load", Start: 0, End: hbm},
		{Op: "HMult", Phase: "NTT/iNTT", Start: 0, End: ntt},
		{Op: "HMult", Phase: "BConv", Start: ntt * 0.25, End: ntt*0.25 + bconv},
		{Op: "HMult", Phase: "elementwise", Start: 0, End: elt},
		{Op: "HMult", Phase: "NoC", Start: 0, End: noc},
	}
	return Fig8Result{
		Events:       events,
		TotalUs:      total * 1e6,
		HBMUtilPct:   100 * hbm / total,
		NTTUUtilPct:  100 * ntt / total,
		BConvUtilPct: 100 * bconv / total,
	}
}

// --- Fig. 9 ------------------------------------------------------------------

// Fig9Row is one ablation step.
type Fig9Row struct {
	Config       string
	TmultASlotUs float64
	Speedup      float64 // vs the Lattigo CPU baseline
}

// Fig9 reproduces the ablation: small BTS on a Lattigo-like instance →
// FHE-optimized instance (INS-1) → 512 MB scratchpad → BConv/iNTT overlap →
// 2 TB/s HBM.
func Fig9() []Fig9Row {
	cpu := baseline.Lattigo.TmultASlot
	var rows []Fig9Row
	add := func(name string, hw arch.Config, inst params.Instance) {
		shape, ok := workload.ShapeForInstance(inst)
		if !ok {
			panic("fig9: instance cannot bootstrap: " + inst.Name)
		}
		s := sim.New(hw, inst)
		t, err := s.AmortizedMultPerSlot(shape)
		if err != nil {
			panic(err)
		}
		rows = append(rows, Fig9Row{name, t * 1e6, cpu / t})
	}

	small := arch.Default()
	small.Name = "small BTS"
	small.BConvOverlap = false
	small.ScratchpadBytes = params.INSLattigo.TempDataBytes() + params.INSLattigo.EvkBytesMax() + (16 << 20)
	add("small BTS (INS-Lattigo)", small, params.INSLattigo)

	small1 := small
	small1.ScratchpadBytes = params.INS1.TempDataBytes() + params.INS1.EvkBytesMax() + (16 << 20)
	add("small BTS (INS-1)", small1, params.INS1)

	noOverlap := arch.Default()
	noOverlap.BConvOverlap = false
	add("BTS w/o BConvU overlapping (INS-1)", noOverlap, params.INS1)

	add("BTS (INS-1)", arch.Default(), params.INS1)

	fast := arch.Default()
	fast.HBMBytesPerSec = 2e12
	// The paper shrinks the scratchpad to fit the extra HBM PHYs.
	fast.ScratchpadBytes = 448 << 20
	add("BTS w/ high bandwidth (INS-1)", fast, params.INS1)
	return rows
}

// --- Fig. 10 -----------------------------------------------------------------

// Fig10Row is the bootstrapping-time breakdown and EDAP at one scratchpad
// capacity.
type Fig10Row struct {
	ScratchpadMB int64
	BootstrapMs  float64
	PerKindMs    map[workload.OpKind]float64
	EDAP         float64
}

// Fig10 sweeps the scratchpad from 192 MB to 1 GB in 64 MB steps on the
// INS-1 bootstrapping trace.
func Fig10() []Fig10Row {
	inst := params.INS1
	shape := workload.PaperBootstrapShape()
	tr := workload.BootstrapTrace(inst, shape)
	var rows []Fig10Row
	for mb := int64(192); mb <= 1024; mb += 64 {
		hw := arch.Default()
		hw.ScratchpadBytes = mb << 20
		s := sim.New(hw, inst)
		st := s.RunTrace(tr)
		per := map[workload.OpKind]float64{}
		for k, v := range st.PerKind {
			per[k] = v * 1e3
		}
		rows = append(rows, Fig10Row{
			ScratchpadMB: mb,
			BootstrapMs:  st.Time * 1e3,
			PerKindMs:    per,
			EDAP:         st.EDAP(),
		})
	}
	return rows
}

// --- Tables 5 and 6 ----------------------------------------------------------

// Table5Row is HELR training time per iteration.
type Table5Row struct {
	System    string
	MsPerIter float64
	Speedup   float64
}

// Table5 reproduces the logistic-regression comparison.
func Table5() []Table5Row {
	var rows []Table5Row
	cpu := baseline.Lattigo.HELRMsPerIter
	for _, p := range baseline.All() {
		if p.HELRMsPerIter == 0 {
			continue
		}
		rows = append(rows, Table5Row{p.Name, p.HELRMsPerIter, cpu / p.HELRMsPerIter})
	}
	cfg := workload.DefaultHELR()
	for _, inst := range params.PaperInstances() {
		shape := workload.PaperBootstrapShape()
		tr := workload.HELRTrace(inst, shape, cfg)
		s := sim.New(arch.Default(), inst)
		st := s.RunTrace(tr)
		ms := st.Time * 1e3 / float64(cfg.Iterations)
		rows = append(rows, Table5Row{"BTS " + inst.Name, ms, cpu / ms})
	}
	return rows
}

// Table6Row is one application/instance result.
type Table6Row struct {
	App        string
	System     string
	Seconds    float64
	Speedup    float64
	Bootstraps int
}

// Table6 reproduces the ResNet-20 and sorting results (CPU references from
// the respective papers, as in the original).
func Table6() []Table6Row {
	var rows []Table6Row
	rows = append(rows,
		Table6Row{App: "ResNet-20", System: "CPU [59]", Seconds: 10602, Speedup: 1},
		Table6Row{App: "sorting", System: "CPU [42]", Seconds: 23066, Speedup: 1},
	)
	shape := workload.PaperBootstrapShape()
	for _, inst := range params.PaperInstances() {
		tr := workload.ResNet20Trace(inst, shape, workload.DefaultResNet())
		s := sim.New(arch.Default(), inst)
		st := s.RunTrace(tr)
		rows = append(rows, Table6Row{
			App: "ResNet-20", System: "BTS " + inst.Name,
			Seconds: st.Time, Speedup: 10602 / st.Time, Bootstraps: tr.Bootstraps,
		})
	}
	for _, inst := range params.PaperInstances() {
		tr := workload.SortingTrace(inst, shape, workload.DefaultSorting())
		s := sim.New(arch.Default(), inst)
		st := s.RunTrace(tr)
		rows = append(rows, Table6Row{
			App: "sorting", System: "BTS " + inst.Name,
			Seconds: st.Time, Speedup: 23066 / st.Time, Bootstraps: tr.Bootstraps,
		})
	}
	return rows
}

// --- §6.3 slowdown vs unencrypted ---------------------------------------------

// SlowdownRow compares FHE-on-BTS with plain execution.
type SlowdownRow struct {
	App      string
	FHESec   float64
	PlainSec float64
	Slowdown float64
}

// SlowdownVsPlain reproduces the §6.3 discussion (HELR 141×, ResNet 440×).
func SlowdownVsPlain() []SlowdownRow {
	shape := workload.PaperBootstrapShape()
	un := baseline.Unencrypted()
	var rows []SlowdownRow

	helr := workload.HELRTrace(params.INS2, shape, workload.DefaultHELR())
	s := sim.New(arch.Default(), params.INS2)
	st := s.RunTrace(helr)
	fheIter := st.Time / float64(workload.DefaultHELR().Iterations)
	plainIter := un.HELRMsPerIter / 1e3
	rows = append(rows, SlowdownRow{"HELR (per iter)", fheIter, plainIter, fheIter / plainIter})

	res := workload.ResNet20Trace(params.INS1, shape, workload.DefaultResNet())
	s2 := sim.New(arch.Default(), params.INS1)
	st2 := s2.RunTrace(res)
	rows = append(rows, SlowdownRow{"ResNet-20", st2.Time, un.ResNetSec, st2.Time / un.ResNetSec})
	return rows
}

// FormatTable renders rows of strings as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for i, w := range widths {
		header[i] = strings.Repeat("-", w)
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
