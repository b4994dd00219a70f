package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	testSpanJob   = Name("job")
	testSpanOp    = Name("op")
	testSpanInner = Name("inner")
)

func TestSpanTreeReconstruction(t *testing.T) {
	tc := NewTracer(256)
	tr := tc.NewTrace()

	root := tr.Span(testSpanJob, 0)
	op := tr.Span(testSpanOp, root.ID())
	inner := tr.Span(testSpanInner, op.ID())
	inner.SetLevel(3)
	inner.SetMarginBits(21.5)
	inner.End()
	op.End()
	root.End()

	recs := tc.Collect(tr.ID())
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["op"].Parent != byName["job"].ID {
		t.Errorf("op's parent = %d, want job's id %d", byName["op"].Parent, byName["job"].ID)
	}
	if byName["inner"].Parent != byName["op"].ID {
		t.Errorf("inner's parent = %d, want op's id %d", byName["inner"].Parent, byName["op"].ID)
	}
	if byName["inner"].Level != 3 {
		t.Errorf("inner level = %d, want 3", byName["inner"].Level)
	}
	if byName["inner"].MarginBits != 21.5 {
		t.Errorf("inner margin = %v, want 21.5", byName["inner"].MarginBits)
	}
	if !math.IsNaN(byName["op"].MarginBits) {
		t.Errorf("op margin = %v, want NaN (unset)", byName["op"].MarginBits)
	}

	tree := tc.RenderTree(tr.ID())
	for _, want := range []string{"job ", "  op ", "    inner ", "level=3", "margin=21.5b"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestTraceIsolation(t *testing.T) {
	tc := NewTracer(256)
	trA, trB := tc.NewTrace(), tc.NewTrace()
	a := trA.Span(testSpanJob, 0)
	b := trB.Span(testSpanJob, 0)
	a.End()
	b.End()
	if got := len(tc.Collect(trA.ID())); got != 1 {
		t.Fatalf("trace A holds %d spans, want 1", got)
	}
}

func TestInertTrace(t *testing.T) {
	var tr Trace // zero value: tracing disabled
	if tr.Active() {
		t.Fatal("zero Trace is active")
	}
	sp := tr.Span(testSpanJob, 0)
	sp.SetLevel(1)
	sp.SetMarginBits(2)
	sp.End() // must not panic
	var nilTracer *Tracer
	if nilTracer.NewTrace().Active() {
		t.Fatal("nil tracer yields an active trace")
	}
	if nilTracer.Spans() != 0 {
		t.Fatal("nil tracer reports spans")
	}
}

func TestRingWraparound(t *testing.T) {
	tc := NewTracer(8)
	tr := tc.NewTrace()
	root := tr.Span(testSpanJob, 0)
	for i := 0; i < 64; i++ {
		sp := tr.Span(testSpanOp, root.ID())
		sp.End()
	}
	root.End()
	recs := tc.Collect(tr.ID())
	if len(recs) == 0 || len(recs) > len(tc.slots) {
		t.Fatalf("got %d spans, want (0, %d]", len(recs), len(tc.slots))
	}
	// The orphaned tail must still render (as extra roots), not vanish.
	if tree := tc.RenderTree(tr.ID()); !strings.Contains(tree, "op") {
		t.Fatalf("wrapped trace lost all spans:\n%s", tree)
	}
	if tc.Spans() != 65 {
		t.Fatalf("Spans() = %d, want 65", tc.Spans())
	}
}

// TestConcurrentRecordAndCollect exercises writers wrapping the ring while a
// reader scans it; run under -race this is the lock-freedom proof.
func TestConcurrentRecordAndCollect(t *testing.T) {
	tc := NewTracer(64)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			tr := tc.NewTrace()
			for i := 0; i < 2000; i++ {
				sp := tr.Span(testSpanOp, 0)
				sp.SetLevel(i & 15)
				sp.End()
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tc.Collect(1)
				_ = tc.RenderTree(2)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}

func TestSpanRecordingAllocsNothing(t *testing.T) {
	tc := NewTracer(1024)
	tr := tc.NewTrace()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span(testSpanOp, 7)
		sp.SetLevel(3)
		sp.SetMarginBits(12.5)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("span record allocates %v objects per op, want 0", allocs)
	}
}

func TestNameInterning(t *testing.T) {
	a := Name("telemetry-test-unique-name")
	b := Name("telemetry-test-unique-name")
	if a != b {
		t.Fatalf("interning returned %d then %d for the same name", a, b)
	}
	if nameOf(a) != "telemetry-test-unique-name" {
		t.Fatalf("nameOf(%d) = %q", a, nameOf(a))
	}
	if nameOf(1<<31) != "?" {
		t.Fatal("unknown handle should render as ?")
	}
}
