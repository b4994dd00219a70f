package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call from the benchmark into a layer. Its name is
// "<layer>.<what>", the layer being the repo module the call enters (or
// "bench" for the benchmark's own grouping spans). Times are nanoseconds
// since the recorder was made.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the run ends. A
// nil or disabled recorder records nothing: begin returns 0 and end(0) is a
// no-op, so call sites are the same in traced and untraced runs.
type recorder struct {
	workload string
	t0       time.Time
	on       atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string, on bool) *recorder {
	r := &recorder{workload: workload, t0: time.Now()}
	r.on.Store(on)
	return r
}

func (r *recorder) enable(on bool) { r.on.Store(on) }

// begin opens a span under parent and returns its id, or 0 when off. A span
// whose parent was not recorded (id 0) becomes a root.
func (r *recorder) begin(name string, parent int) int {
	if r == nil || !r.on.Load() {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// closed returns the spans that ended.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	spans := r.closed()
	if len(spans) == 0 {
		return nil
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{r.workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// it its direct children cover. Children of one span run one after another
// on the goroutine that opened it, so their durations add; the result is
// clamped at zero against clock granularity.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
	}
	for _, s := range spans {
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerOf is the module a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time per layer over the subtree of spans named
// root (every recorded instance of it), and returns the total time of those
// roots.
func selfByLayer(spans []span, root string) (byLayer map[string]int64, total int64) {
	self := selfTimes(spans)
	inTree := map[int]bool{}
	byLayer = map[string]int64{}
	for _, s := range spans { // parents are appended before their children
		if s.Name == root {
			inTree[s.ID] = true
			total += s.End - s.Start
		} else if inTree[s.Parent] {
			inTree[s.ID] = true
		}
		if inTree[s.ID] {
			byLayer[layerOf(s.Name)] += self[s.ID]
		}
	}
	return byLayer, total
}

// traceMetrics reports what the span tree says about the timed section:
// the share of it that is the benchmark's own self time (harness overhead
// inside the unit of work, which the end-to-end numbers include).
func (r *run) traceMetrics() {
	spans := r.rec.closed()
	byLayer, total := selfByLayer(spans, "bench.unit")
	if total > 0 {
		r.set("bench.self_share", "ratio", float64(byLayer["bench"])/float64(total))
		for _, layer := range sortedKeys(byLayer) {
			if layer != "bench" {
				r.set("trace."+layer+"_self_s", "s", float64(byLayer[layer])/1e9)
			}
		}
	}
	r.set("bench.spans", "spans", float64(len(spans)))
}
