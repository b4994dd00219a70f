package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Tracer records spans into a fixed-size ring buffer. Every slot field is an
// atomic word: writers claim a slot by bumping the head counter, invalidate
// the slot's sequence word, store the fields, and publish the new sequence
// last; readers snapshot the sequence, load the fields, and re-check the
// sequence, discarding the slot if it changed underneath them. Recording
// therefore never locks, never blocks, and never allocates, and readers can
// scan concurrently with writers under -race. The buffer simply wraps: a
// trace older than capacity spans loses its oldest spans, which a dump
// reports as a partial tree rather than an error.
//
// The one sacrifice for locklessness: two writers that land on the same slot
// a full buffer-lap apart can interleave their field stores, and a reader
// racing both can observe a mixed record whose sequence nonetheless reads
// stable. That requires capacity spans to be recorded during one slot read —
// vanishingly rare at any sane capacity — and at worst garbles one line of a
// diagnostic dump, so it is accepted by design.
type Tracer struct {
	slots   []slot
	mask    uint64
	head    atomic.Uint64 // next slot claim (slot seq = claim+1, so 0 means empty)
	spanIDs atomic.Uint64
	traces  atomic.Uint64
	epoch   time.Time // all span times are monotonic offsets from this
}

type slot struct {
	seq    atomic.Uint64
	trace  atomic.Uint64
	span   atomic.Uint64
	parent atomic.Uint64
	name   atomic.Uint32
	start  atomic.Int64 // ns since epoch
	dur    atomic.Int64 // ns
	a1     atomic.Uint64
	a2     atomic.Uint64
}

// DefaultTraceCapacity is the span capacity NewTracer(0) selects: enough for
// several concurrent bootstrap jobs' full span trees (~10 MiB higher bound of
// slot memory is ~1.5 MiB at this capacity).
const DefaultTraceCapacity = 1 << 14

// NewTracer builds a tracer with the given span capacity, rounded up to a
// power of two (0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{slots: make([]slot, n), mask: uint64(n - 1), epoch: time.Now()}
}

// Spans reports how many spans have ever been recorded (monotonic; the ring
// retains the most recent capacity of them).
func (t *Tracer) Spans() uint64 {
	if t == nil {
		return 0
	}
	return t.head.Load()
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *Tracer) record(trace, span, parent uint64, name uint32, start, dur int64, a1, a2 uint64) {
	idx := t.head.Add(1) - 1
	s := &t.slots[idx&t.mask]
	s.seq.Store(0)
	s.trace.Store(trace)
	s.span.Store(span)
	s.parent.Store(parent)
	s.name.Store(name)
	s.start.Store(start)
	s.dur.Store(dur)
	s.a1.Store(a1)
	s.a2.Store(a2)
	s.seq.Store(idx + 1)
}

// Trace is one recording context (one served job): a handle pairing a tracer
// with a trace ID. The zero Trace is inert — every method is a cheap no-op —
// which is how instrumented code paths run when tracing is disabled.
type Trace struct {
	t  *Tracer
	id uint64
}

// NewTrace allocates a fresh trace handle. Calling it on a nil tracer yields
// the inert zero Trace.
func (t *Tracer) NewTrace() Trace {
	if t == nil {
		return Trace{}
	}
	return Trace{t: t, id: t.traces.Add(1)}
}

// Active reports whether the trace records anything.
func (tr Trace) Active() bool { return tr.t != nil }

// ID returns the trace ID (0 for the inert trace).
func (tr Trace) ID() uint64 { return tr.id }

// Span opens a span under the given parent span ID (0 = root). The returned
// Span is a plain value; nothing is recorded until End. On an inert trace the
// result is itself inert.
func (tr Trace) Span(name uint32, parent uint64) Span {
	if tr.t == nil {
		return Span{}
	}
	return Span{
		t:      tr.t,
		trace:  tr.id,
		id:     tr.t.spanIDs.Add(1),
		parent: parent,
		name:   name,
		start:  tr.t.now(),
	}
}

// Span is one timed region. It is passed by value and records itself into
// the tracer's ring on End; an inert span (from an inert Trace) ignores every
// call.
type Span struct {
	t      *Tracer
	trace  uint64
	id     uint64
	parent uint64
	name   uint32
	start  int64
	a1     uint64 // level+1 (0 = unset)
	a2     uint64 // float64 bits of the noise margin (0 = unset)
}

// Recording reports whether the span will be recorded.
func (s *Span) Recording() bool { return s.t != nil }

// ID returns the span's ID (0 when inert), used as the parent of child spans.
func (s *Span) ID() uint64 { return s.id }

// Parent returns the parent span ID this span was opened under (0 for roots
// and inert spans) — callers that thread a mutable "current parent" through
// nested instrumentation restore it from here on End.
func (s *Span) Parent() uint64 { return s.parent }

// SetLevel attaches a ciphertext level to the span.
func (s *Span) SetLevel(level int) {
	if s.t != nil {
		s.a1 = uint64(level) + 1
	}
}

// SetMarginBits attaches a noise-margin estimate (bits of modulus headroom,
// see ckks.Context.NoiseMargin) to the span.
func (s *Span) SetMarginBits(bits float64) {
	if s.t != nil {
		s.a2 = math.Float64bits(bits)
	}
}

// End records the span. Safe to call on an inert span (no-op); calling End
// twice records the span twice.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	s.t.record(s.trace, s.id, s.parent, s.name, s.start, s.t.now()-s.start, s.a1, s.a2)
}

// SpanRecord is one collected span, decoded from the ring.
type SpanRecord struct {
	Trace, ID, Parent uint64
	Name              string
	Start, Dur        time.Duration // offsets from the tracer epoch / wall time
	Level             int           // -1 when unset
	MarginBits        float64       // NaN when unset
}

// Collect returns every retained span of the given trace, ordered by start
// time. Spans overwritten by the ring (or mid-write during the scan) are
// skipped.
func (t *Tracer) Collect(traceID uint64) []SpanRecord {
	if t == nil {
		return nil
	}
	var out []SpanRecord
	for i := range t.slots {
		s := &t.slots[i]
		seq := s.seq.Load()
		if seq == 0 || s.trace.Load() != traceID {
			continue
		}
		rec := SpanRecord{
			Trace:  s.trace.Load(),
			ID:     s.span.Load(),
			Parent: s.parent.Load(),
			Name:   nameOf(s.name.Load()),
			Start:  time.Duration(s.start.Load()),
			Dur:    time.Duration(s.dur.Load()),
			Level:  int(s.a1.Load()) - 1,
		}
		if bits := s.a2.Load(); bits != 0 {
			rec.MarginBits = math.Float64frombits(bits)
		} else {
			rec.MarginBits = math.NaN()
		}
		if s.seq.Load() != seq || rec.Trace != traceID {
			continue // overwritten while reading
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RenderTree formats the trace's retained spans as an indented tree, one
// span per line: name, wall time, and the level/noise-margin attributes when
// set. Orphaned spans (parent overwritten by the ring) render as extra roots,
// so a partially-evicted trace still dumps usefully.
func (t *Tracer) RenderTree(traceID uint64) string {
	recs := t.Collect(traceID)
	if len(recs) == 0 {
		return "(no spans retained)\n"
	}
	children := make(map[uint64][]SpanRecord, len(recs))
	have := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		have[r.ID] = true
	}
	var roots []SpanRecord
	for _, r := range recs {
		if r.Parent == 0 || !have[r.Parent] {
			roots = append(roots, r)
		} else {
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	var b strings.Builder
	var walk func(r SpanRecord, depth int)
	walk = func(r SpanRecord, depth int) {
		if depth > 32 { // torn reads cannot build real cycles, but stay safe
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %.3fms", r.Name, float64(r.Dur)/1e6)
		if r.Level >= 0 {
			fmt.Fprintf(&b, " level=%d", r.Level)
		}
		if !math.IsNaN(r.MarginBits) {
			fmt.Fprintf(&b, " margin=%.1fb", r.MarginBits)
		}
		b.WriteByte('\n')
		for _, c := range children[r.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
