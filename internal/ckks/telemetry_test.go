package ckks

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bts/internal/telemetry"
)

func TestNoiseMarginFormula(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	rng := rand.New(rand.NewSource(31))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	logQ := 0.0
	for l := 0; l <= ct.Level; l++ {
		logQ += math.Log2(float64(s.params.Q[l]))
	}
	want := logQ - math.Log2(ct.Scale)
	if got := s.ctx.NoiseMargin(ct); math.Abs(got-want) > 1e-9 {
		t.Fatalf("NoiseMargin = %.6f, want %.6f", got, want)
	}

	// A multiply (scale squares) then rescale (one prime burned, scale
	// divided back) must strictly shrink the margin each step.
	m0 := s.ctx.NoiseMargin(ct)
	prod := s.eval.MulRelin(ct, ct)
	m1 := s.ctx.NoiseMargin(prod)
	if m1 >= m0 {
		t.Fatalf("margin did not drop across MulRelin: %.2f -> %.2f", m0, m1)
	}
	res := s.eval.Rescale(prod)
	m2 := s.ctx.NoiseMargin(res)
	if m2 >= m0 {
		t.Fatalf("rescaled margin %.2f not below the fresh margin %.2f", m2, m0)
	}
}

func TestNoiseFloorTracksMinimum(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	nf := NewNoiseFloor()
	ev := s.eval.WithNoiseFloor(nf)
	if !math.IsInf(nf.MinBits(), 1) {
		t.Fatalf("fresh floor = %v, want +Inf", nf.MinBits())
	}

	rng := rand.New(rand.NewSource(32))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	cur := ct
	for cur.Level > 1 {
		cur = ev.Rescale(ev.MulRelin(cur, cur))
	}
	want := s.ctx.NoiseMargin(cur)
	if got := nf.MinBits(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("floor = %.6f, want the deepest op's margin %.6f", got, want)
	}

	// The base evaluator has no floor attached and must not observe.
	nf.Reset()
	_ = s.eval.Rescale(s.eval.MulRelin(ct, ct))
	if !math.IsInf(nf.MinBits(), 1) {
		t.Fatalf("detached evaluator moved the floor to %v", nf.MinBits())
	}
}

func TestTracedEvaluationBitIdentical(t *testing.T) {
	rotations := []int{1, 3}
	s := newTestSetup(t, 2, rotations)
	rng := rand.New(rand.NewSource(33))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	run := func(ev *Evaluator) *Ciphertext {
		r := ev.Rotate(ct, 3)
		m := ev.Rescale(ev.MulRelin(r, ct))
		return ev.Add(ev.MulRelinRescale(m, r), m)
	}
	plain := run(s.eval)

	tracer := telemetry.NewTracer(1 << 10)
	tr := tracer.NewTrace()
	traced := run(s.eval.WithTrace(tr, 0))

	if plain.Level != traced.Level || plain.Scale != traced.Scale {
		t.Fatalf("traced result shape differs: level %d/%d scale %g/%g",
			plain.Level, traced.Level, plain.Scale, traced.Scale)
	}
	for r := 0; r <= plain.Level; r++ {
		for j, v := range plain.C0.Coeffs[r] {
			if traced.C0.Coeffs[r][j] != v {
				t.Fatalf("C0 residue (%d,%d) differs under tracing", r, j)
			}
		}
		for j, v := range plain.C1.Coeffs[r] {
			if traced.C1.Coeffs[r][j] != v {
				t.Fatalf("C1 residue (%d,%d) differs under tracing", r, j)
			}
		}
	}

	recs := tracer.Collect(tr.ID())
	if len(recs) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	byName := map[string]int{}
	for _, r := range recs {
		byName[r.Name]++
	}
	for _, name := range []string{"ckks.rotate", "ckks.mulrelin", "ckks.rescale", "ckks.keyswitch"} {
		if byName[name] == 0 {
			t.Fatalf("no %q span recorded (got %v)", name, byName)
		}
	}
	// keySwitch spans must be children of the ops that ran them.
	parents := map[uint64]string{}
	for _, r := range recs {
		parents[r.ID] = r.Name
	}
	for _, r := range recs {
		if r.Name == "ckks.keyswitch" {
			p := parents[r.Parent]
			if p != "ckks.rotate" && p != "ckks.mulrelin" {
				t.Fatalf("keyswitch span parented under %q", p)
			}
		}
	}
}

func TestBootstrapPhaseTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrapping is expensive; skipped with -short")
	}
	s, bt := bootSetup(t)
	rng := rand.New(rand.NewSource(34))
	values := randomComplex(rng, s.params.Slots(), 0.7)
	pt, _ := s.encoder.Encode(values, 0, s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	tracer := telemetry.NewTracer(1 << 12)
	tr := tracer.NewTrace()
	out, err := bt.BootstrapWith(s.eval.WithTrace(tr, 0), ct)
	if err != nil {
		t.Fatal(err)
	}
	if out.Level == 0 {
		t.Fatal("bootstrap did not restore levels")
	}

	ph := bt.LastPhases()
	for name, d := range map[string]float64{
		"ModRaise":    ph.ModRaise.Seconds(),
		"CoeffToSlot": ph.CoeffToSlot.Seconds(),
		"EvalMod":     ph.EvalMod.Seconds(),
		"SlotToCoeff": ph.SlotToCoeff.Seconds(),
	} {
		if d <= 0 {
			t.Fatalf("phase %s not timed", name)
		}
	}

	tree := tracer.RenderTree(tr.ID())
	for _, phase := range []string{"bootstrap.modraise", "bootstrap.coeff_to_slot", "bootstrap.eval_mod", "bootstrap.slot_to_coeff"} {
		if !strings.Contains(tree, phase) {
			t.Fatalf("span tree missing %s:\n%s", phase, tree)
		}
	}
}

func TestContextSetStats(t *testing.T) {
	s := newTestSetup(t, 2, nil)
	var st telemetry.ContextStats
	s.ctx.SetStats(&st)
	defer s.ctx.Close()

	rng := rand.New(rand.NewSource(35))
	values := randomComplex(rng, s.params.Slots(), 1)
	pt, _ := s.encoder.Encode(values, s.params.MaxLevel(), s.params.Scale)
	ct, err := s.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.eval.Rescale(s.eval.MulRelin(ct, ct))

	if st.Engine.Runs.Load()+st.Engine.InlineRuns.Load() == 0 {
		t.Fatal("engine dispatches not counted after SetStats")
	}
	if st.PoolQ.PolyGets.Load() == 0 {
		t.Fatal("q-ring pool traffic not counted after SetStats")
	}

	// SetWorkers swaps the engine; counting must survive the swap.
	before := st.Engine.Tasks.Load()
	s.ctx.SetWorkers(2)
	_ = s.eval.MulRelin(ct, ct)
	if st.Engine.Tasks.Load() == before {
		t.Fatal("engine counters detached by SetWorkers")
	}
}

// TestOpCounterAndSpanContract pins, per public op, the exact OpCounters
// delta and the exact set of parent→child span edges it records ("" is the
// trace root). The bench's simulator cross-check reads these counts, so a
// counting site that moves must move without changing them.
func TestOpCounterAndSpanContract(t *testing.T) {
	s := newTestSetup(t, 2, []int{1, 2, 3, 4, 5})
	defer s.ctx.Close()
	rng := rand.New(rand.NewSource(36))
	ct := randomCiphertext(s.ctx, rng, s.params.MaxLevel())
	hd := s.eval.DecomposeNTT(ct)
	defer hd.Release()
	diags := map[int][]complex128{}
	for _, k := range []int{0, 1, 2, 3, 5, 6} {
		diags[k] = randomComplex(rng, s.params.Slots(), 1)
	}
	// n1 = 4: baby steps 1, 2, 3 on one decomposition; giant groups
	// {0, 1, 2, 3} and {5, 6}, the second ending in a full rotation by 4.
	lt, err := newLinearTransformN1(s.encoder, diags, s.params.MaxLevel(), s.params.Scale, 4)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		run   func(ev *Evaluator)
		want  OpCounters
		edges []string
	}{
		{"Rotate", func(ev *Evaluator) { ev.Rotate(ct, 3) },
			OpCounters{FullRot: 1, ModDown: 2},
			[]string{">ckks.rotate", "ckks.rotate>ckks.keyswitch"}},
		{"Conjugate", func(ev *Evaluator) { ev.Conjugate(ct) },
			OpCounters{FullRot: 1, ModDown: 2},
			[]string{">ckks.rotate", "ckks.rotate>ckks.keyswitch"}},
		{"MulRelin", func(ev *Evaluator) { ev.MulRelin(ct, ct) },
			OpCounters{Mult: 1, ModDown: 2},
			[]string{">ckks.mulrelin", "ckks.mulrelin>ckks.keyswitch"}},
		{"Rescale", func(ev *Evaluator) { ev.Rescale(ct) },
			OpCounters{Rescale: 1},
			[]string{">ckks.rescale"}},
		{"RotateWithDecomposition", func(ev *Evaluator) { ev.RotateWithDecomposition(ct, 2, hd) },
			OpCounters{HoistedRot: 1, ModDown: 2},
			nil},
		{"RotateHoisted", func(ev *Evaluator) { ev.RotateHoisted(ct, []int{1, 2, 5, 2, 0}) },
			OpCounters{Decompose: 1, HoistedRot: 3, ModDown: 6},
			[]string{">ckks.rotate_hoisted", "ckks.rotate_hoisted>ckks.decompose"}},
		{"DecomposeNTT", func(ev *Evaluator) { ev.DecomposeNTT(ct).Release() },
			OpCounters{Decompose: 1},
			[]string{">ckks.decompose"}},
		{"LinearTransform", func(ev *Evaluator) { ev.LinearTransform(ct, lt) },
			OpCounters{FullRot: 1, HoistedRot: 3, Decompose: 1, ModDown: 6, PMult: 6},
			[]string{">ckks.linear_transform", "ckks.linear_transform>ckks.decompose",
				"ckks.linear_transform>ckks.rotate", "ckks.rotate>ckks.keyswitch"}},
	} {
		tracer := telemetry.NewTracer(1 << 10)
		tr := tracer.NewTrace()
		before := s.eval.Counters()
		tc.run(s.eval.WithTrace(tr, 0))
		if got := s.eval.Counters().Sub(before); got != tc.want {
			t.Errorf("%s: counted %+v, want %+v", tc.name, got, tc.want)
		}
		recs := tracer.Collect(tr.ID())
		names := map[uint64]string{}
		for _, r := range recs {
			names[r.ID] = r.Name
		}
		edges := map[string]bool{}
		for _, r := range recs {
			edges[names[r.Parent]+">"+r.Name] = true
		}
		want := map[string]bool{}
		for _, e := range tc.edges {
			want[e] = true
		}
		if fmt.Sprint(edges) != fmt.Sprint(want) {
			t.Errorf("%s: span edges %v, want %v", tc.name, edges, want)
		}
	}
}
