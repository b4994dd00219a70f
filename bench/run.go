package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// benchSpec is BENCHMARK.json: the contract between this program, the
// driver that runs it, and later changes that are judged by it. The program
// reads the metric names, units and bounds from the file rather than
// repeating them, so the file cannot drift from what is printed.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one measured number as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run carries one run's measurements. Workloads record into it from one or
// more goroutines (the serve clients), so its methods lock.
type run struct {
	cfg config
	rec *recorder

	mu        sync.Mutex
	values    map[string]metricValue // every number measured, listed metrics and extras
	samples   map[string]summary     // sample statistics behind the medians
	attempted int
	failed    int
	failures  []string
	worstErr  float64 // largest normalised slot error over all checked outputs
	checked   int
	warmUps   int
	clients   int
}

func newRun(cfg config) *run {
	return &run{
		cfg:     cfg,
		rec:     newRecorder(cfg.workload, cfg.trace),
		values:  map[string]metricValue{},
		samples: map[string]summary{},
	}
}

// rng returns a generator for one named input stream of the run's seed, so
// adding a stream never shifts the inputs of another.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1000 + stream))
}

func (r *run) set(name, unit string, v float64) {
	r.mu.Lock()
	r.values[name] = metricValue{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *run) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.values[name].Value
}

// sample records the statistics of the timings behind a metric.
func (r *run) sample(name, unit string, ds []time.Duration) {
	s := summarize(ds, unit)
	r.mu.Lock()
	r.samples[name] = s
	r.mu.Unlock()
}

// attempt counts n operations whose outcome the run checks.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// guard runs f, turning a panic from a library invariant (the ckks layer
// panics on level, scale and key mismatches) into an error.
func (r *run) guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("panic: %v\n%s", p, buf)
		}
	}()
	return f()
}

// check compares a decrypted output with the float model and returns how
// many bits agree: -log2 of the largest slot error, normalised by the largest
// expected magnitude (never below 1). Fewer than minBits counts as a failed
// operation. Headline outputs — the ones the workload exists to produce —
// also feed precision_bits. It is always called outside the timed spans.
func (r *run) check(what string, got, want []complex128, minBits float64, headline bool) float64 {
	scale := 1.0
	worst := 0.0
	for i := range want {
		if a := cabs(want[i]); a > scale {
			scale = a
		}
		if d := cabs(got[i] - want[i]); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	worst /= scale
	if headline {
		r.mu.Lock()
		r.checked++
		if worst > r.worstErr || math.IsNaN(worst) {
			r.worstErr = worst
		}
		r.mu.Unlock()
	}
	if !(worst < math.Exp2(-minBits)) {
		r.fail("%s: slot error %.3g, want below 2^-%g", what, worst, minBits)
	}
	return -math.Log2(worst)
}

// precisionBits is -log2 of the largest normalised slot error seen.
func (r *run) precisionBits() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.checked == 0 || r.worstErr <= 0 {
		return 0
	}
	return -math.Log2(r.worstErr)
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// timed runs f under a span named name (a no-op unless the recorder is on)
// and returns how long it took. Traced and untraced runs share this path,
// so the only difference between them is the span append.
func (r *run) timed(parent int, name string, f func()) time.Duration {
	id := r.rec.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	r.rec.end(id)
	return d
}

// loop runs step until d has elapsed (at least twice), alternating the
// recorder on and off between iterations in a traced run, and returns the
// per-iteration wall times of the traced and untraced iterations. An
// untraced run returns everything in plain.
func (r *run) loop(d time.Duration, step func(i int) error) (plain, traced []time.Duration, err error) {
	start := time.Now()
	for i := 0; time.Since(start) < d || i < 2; i++ {
		on := r.cfg.trace && i%2 == 0
		r.rec.enable(on)
		t := time.Now()
		if err := step(i); err != nil {
			return plain, traced, err
		}
		if el := time.Since(t); on {
			traced = append(traced, el)
		} else {
			plain = append(plain, el)
		}
	}
	r.rec.enable(r.cfg.trace)
	return plain, traced, nil
}

// overhead records bench.trace_overhead_ratio: median traced iteration over
// median untraced iteration of the same loop, interleaved so drift cancels.
func (r *run) overhead(plain, traced []time.Duration) {
	if len(plain) == 0 || len(traced) == 0 {
		return
	}
	r.set("bench.trace_overhead_ratio", "ratio", median(traced).Seconds()/median(plain).Seconds())
}

// result picks the wanted metrics out of everything measured.
func (r *run) result(wanted []metricSpec) (resultLine, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res := resultLine{Attempted: r.attempted, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	var missing []string
	for _, m := range wanted {
		v, ok := r.values[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, m.Name)
			v = metricValue{}
		}
		v.Unit = m.Unit
		res.Metrics[m.Name] = v
	}
	return res, missing
}

// print lists every measured number as `name value unit`.
func (r *run) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.values) {
		v := r.values[name]
		fmt.Fprintf(w, "%s %v %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "fail_share %v ratio\n", float64(r.failed)/math.Max(1, float64(r.attempted)))
}

// report is the envelope written next to the span file: what ran, where,
// and the sample statistics behind every median.
type report struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Seconds       float64                `json:"seconds"`
	Trace         bool                   `json:"trace"`
	Commit        string                 `json:"commit"`
	Host          host                   `json:"host"`
	EngineWorkers int                    `json:"engine_workers"`
	Clients       int                    `json:"closed_loop_clients"`
	WarmUps       int                    `json:"warm_ups"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
	Samples       map[string]summary     `json:"samples"`
}

func (r *run) writeReport() error {
	r.mu.Lock()
	rep := report{
		Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Commit: commit(), Host: hostInfo(), EngineWorkers: engineWorkers,
		Clients: r.clients, WarmUps: r.warmUps,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: r.values, Samples: r.samples,
	}
	b, err := json.MarshalIndent(rep, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-trace%d.json", r.cfg.workload, btoi(r.cfg.trace))
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
