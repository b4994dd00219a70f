package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGaugeRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func(w *Writer) {
		w.Counter("bts_test_total", "A test counter.", nil, 42)
		w.Counter("bts_test_total", "A test counter.", []Label{{"op", "mul"}}, 7)
		w.Gauge("bts_test_depth", "A test gauge.", []Label{{"q", `a"b\c`}}, 3)
	})
	out := string(reg.Render())
	for _, want := range []string{
		"# HELP bts_test_total A test counter.",
		"# TYPE bts_test_total counter",
		"bts_test_total 42",
		`bts_test_total{op="mul"} 7`,
		`bts_test_depth{q="a\"b\\c"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for a family must appear exactly once even with two samples.
	if n := strings.Count(out, "# TYPE bts_test_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
}

func TestHistogramRendering(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("Sum = %v, want 56.05", got)
	}
	reg := NewRegistry()
	reg.Register(func(w *Writer) {
		w.Histogram("bts_test_seconds", "A test histogram.", []Label{{"op", "add"}}, h)
	})
	out := string(reg.Render())
	for _, want := range []string{
		"# TYPE bts_test_seconds histogram",
		`bts_test_seconds_bucket{op="add",le="0.1"} 1`,
		`bts_test_seconds_bucket{op="add",le="1"} 3`,
		`bts_test_seconds_bucket{op="add",le="10"} 4`,
		`bts_test_seconds_bucket{op="add",le="+Inf"} 5`,
		`bts_test_seconds_sum{op="add"} 56.05`,
		`bts_test_seconds_count{op="add"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g+1) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestStatsCollectors(t *testing.T) {
	var cs ContextStats
	cs.Engine.Runs.Add(3)
	cs.Engine.Tasks.Add(17)
	cs.Engine.StolenTasks.Add(5)
	cs.PoolQ.PolyGets.Add(9)
	cs.PoolQ.PolyMisses.Add(2)
	var ws WireStats
	ws.BytesIn.Add(1000)
	ws.EnvelopesOut.Add(4)

	reg := NewRegistry()
	reg.Register(cs.Collect)
	reg.Register(ws.Collect)
	out := string(reg.Render())
	for _, want := range []string{
		"bts_engine_runs_total 3",
		"bts_engine_tasks_total 17",
		"bts_engine_stolen_tasks_total 5",
		`bts_pool_gets_total{ring="q",kind="poly"} 9`,
		`bts_pool_misses_total{ring="q",kind="poly"} 2`,
		`bts_pool_gets_total{ring="q",kind="row"} 0`,
		`bts_pool_gets_total{ring="p",kind="poly"} 0`,
		`bts_wire_bytes_total{dir="in"} 1000`,
		`bts_wire_envelopes_total{dir="out"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Rows grow on the q ring only: the p ring has no row series.
	if strings.Contains(out, `ring="p",kind="row"`) {
		t.Errorf("output renders a row series for the p ring:\n%s", out)
	}
}
