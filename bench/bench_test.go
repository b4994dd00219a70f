package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark runs from the repository root (BENCHMARK.json and bench/out
// are relative to it); the tests do the same.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	if got := median(ms(5, 1, 3)); got != 3*time.Millisecond {
		t.Errorf("odd median = %v", got)
	}
	if got := median(ms(4, 1, 3, 2)); got != 2500*time.Microsecond {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	// A percentile is reported only with ten samples beyond it.
	if hasPercentile(99, 90) || !hasPercentile(100, 90) || hasPercentile(999, 99) || !hasPercentile(1000, 99) {
		t.Error("hasPercentile does not put the line at ten samples beyond")
	}
	s := summarize(ms(1, 2, 3, 4), "ms")
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 || s.P90 != nil {
		t.Errorf("summary = %+v", s)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives, because the acceptance protocol computes its spreads with that.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.7}, 2.8, 3.2},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !ok || !near(sp, 1) {
		t.Errorf("spread = %g, %v; want 1", sp, ok)
	}
}

func TestEquation8(t *testing.T) {
	// 10 s bootstrap, 11 usable levels of 100 ms each, 4096 slots:
	// (10 + 1.1) s / 11 / 4096 = 246.36… µs.
	tm := make([]time.Duration, 11)
	for i := range tm {
		tm[i] = 100 * time.Millisecond
	}
	if got, want := tmultAPerSlotUs(10*time.Second, tm, 4096), 11.1e6/11/4096; !near(got, want) {
		t.Errorf("Eq. 8 = %g µs, want %g", got, want)
	}
	if got := tmultAPerSlotUs(time.Second, nil, 4096); got != 0 {
		t.Errorf("Eq. 8 without levels = %g", got)
	}
	// Without a bootstrap: 3 s of work that consumed 6 levels on 1000 slots.
	if got, want := amortizedUs(3*time.Second, 6, 1000), 500.0; !near(got, want) {
		t.Errorf("amortized = %g µs, want %g", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "bench.unit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "ckks.Bootstrap", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "ring.NTT", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "ckks.MulRelin", Start: 60, End: 90},
		{ID: 5, Parent: 0, Name: "bench.check", Start: 100, End: 130},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 30, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	by, total := selfByLayer(spans, "bench.unit")
	if total != 100 || by["bench"] != 20 || by["ckks"] != 50 || by["ring"] != 30 {
		t.Errorf("selfByLayer = %v, total %d", by, total)
	}
	var sum int64
	for _, v := range by {
		sum += v
	}
	if sum != total {
		t.Errorf("layer self times sum to %d, the unit is %d", sum, total)
	}
}

// Every recorded child lies inside its parent, and the children of one span
// never add up to more than it.
func TestSpanTreeClosure(t *testing.T) {
	r := newRun(config{workload: "test", trace: true})
	root := r.rec.begin("bench.unit", 0)
	for i := 0; i < 20; i++ {
		outer := r.rec.begin("ckks.Outer", root)
		r.timed(outer, "ring.Inner", func() { time.Sleep(50 * time.Microsecond) })
		r.timed(outer, "ring.Inner", func() {})
		r.rec.end(outer)
	}
	r.rec.end(root)
	r.rec.begin("bench.never_closed", 0)
	spans := r.rec.closed()
	if len(spans) != 61 {
		t.Fatalf("%d closed spans, want 61", len(spans))
	}
	byID := map[int]span{}
	children := map[int]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) leaves its parent %d", s.ID, s.Name, p.ID)
		}
		children[p.ID] += s.End - s.Start
	}
	for id, sum := range children {
		if d := byID[id].End - byID[id].Start; sum > d {
			t.Errorf("children of span %d cover %d ns of its %d ns", id, sum, d)
		}
	}
	// Off: nothing is recorded and the ids are the null span.
	r.rec.enable(false)
	if id := r.rec.begin("x.y", root); id != 0 {
		t.Errorf("disabled recorder returned id %d", id)
	}
	r.rec.end(0)
}

func TestJobMixIsSeeded(t *testing.T) {
	draw := func(seed int64) []jobClass {
		jobs := newDeck(newRun(config{seed: seed}).rng(40))
		out := make([]jobClass, 5000)
		for i := range out {
			out[i] = jobs.draw()
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := true
	var counts [numClasses]int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 drew different jobs at %d", i)
		}
		same = same && a[i] == c[i]
		counts[a[i]]++
	}
	if same {
		t.Error("seeds 1 and 2 drew the same job order")
	}
	// The composition is exact, whatever the order.
	for cl, want := range [numClasses]int{2000, 1000, 2000} {
		if counts[cl] != want {
			t.Errorf("%d %s jobs in 5000, want %d", counts[cl], classNames[cl], want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "precision_bits", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, ok},
		{"5% slower", lower, steady, shift(steady, 1.05), ok},
		{"15% slower", lower, steady, shift(steady, 1.15), regressed},
		{"15% faster", lower, steady, shift(steady, 0.85), ok},
		{"noisy", lower, noisy, noisy, unresolved},
		{"noisy but every run better", lower, noisy, shift(noisy, 0.3), ok},
		{"bits lost", higher, []float64{20, 20.1, 19.9}, []float64{18, 18.1, 17.9}, regressed},
		{"bits gained", higher, []float64{20, 20.1, 19.9}, []float64{22, 22.1, 21.9}, ok},
	} {
		if _, _, _, _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPromQuantile(t *testing.T) {
	text := `# HELP h x
h_bucket{op="mul",le="0.001"} 0
h_bucket{op="mul",le="0.01"} 50
h_bucket{op="mul",le="+Inf"} 100
h_sum{op="mul"} 3.5
h_count{op="mul"} 100
h_bucket{op="rot",le="0.001"} 10
h_bucket{op="rot",le="0.01"} 10
h_bucket{op="rot",le="+Inf"} 10
c_total{ring="q"} 3
c_total{ring="p"} 4
`
	pm := parseProm(text)
	if got := pm.sum("c_total", nil); got != 7 {
		t.Errorf("sum = %g", got)
	}
	if got := pm.quantile("h", map[string]string{"op": "mul"}, 0.25); !near(got, 0.0055) {
		t.Errorf("p25 = %g, want 0.0055", got)
	}
	if got := pm.quantile("h", map[string]string{"op": "rot"}, 0.5); !near(got, 0.0005) {
		t.Errorf("rot p50 = %g, want 0.0005", got)
	}
	if got := pm.quantile("absent", nil, 0.5); got != 0 {
		t.Errorf("absent histogram = %g", got)
	}
}

// BENCHMARK.json stays inside the limits its readers enforce.
func TestSpecWithinLimits(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}

// The four workloads run end to end on toy parameter sets (LogN 10), traced
// and untraced, produce every metric BENCHMARK.json lists and fail no
// operation — so the harness keeps compiling and running against
// internal/* between the real, minutes-long runs.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 7, seconds: 0.05, trace: trace, short: true}
			r := newRun(cfg)
			if err := r.guard(func() error { return r.execute(workloads[wl.Name]) }); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			wanted := spec.EndToEnd
			if trace {
				wanted = spec.PerLayer
			}
			res, missing := r.result(wanted)
			if len(missing) > 0 {
				t.Errorf("%s trace=%v: metrics not measured: %v", wl.Name, trace, missing)
			}
			if r.failed > 0 {
				t.Errorf("%s trace=%v: %d failed operations: %v", wl.Name, trace, r.failed, r.failures)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: nothing attempted", wl.Name, trace)
			}
			for _, m := range spec.EndToEnd {
				if !trace && !(res.Metrics[m.Name].Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.Name, m.Name, res.Metrics[m.Name].Value)
				}
			}
			var listing bytes.Buffer
			r.print(&listing)
			if !strings.Contains(listing.String(), "fail_share 0 ratio") {
				t.Errorf("%s trace=%v: listing lacks fail_share 0", wl.Name, trace)
			}
			if trace {
				spans := r.rec.closed()
				if _, total := selfByLayer(spans, "bench.unit"); total == 0 {
					t.Errorf("%s: traced run recorded no unit of work", wl.Name)
				}
			}
		}
	}
}
