// Command bench is the repository's benchmark: one seeded program that
// measures the paper's figure of merit — amortized multiplication time per
// slot, T_mult,a/slot (Eq. 8) — on the real library, and follows the time
// down through the layers (serve → wire → ckks → ring → mod, with telemetry
// and the accelerator model beside them). It drives only the public
// functions of internal/*; every span of the layer trace is recorded from
// this directory, around the calls into each layer.
//
// One run measures one workload:
//
//	go run ./bench --workload boot_ins1_n12 --seed 1 --seconds 20 --trace 0
//
// and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 every
// end-to-end metric BENCHMARK.json lists, with --trace 1 every per-layer
// metric. Before that line it prints every number it measured — the listed
// metrics and the workload's own extras — as `name value unit`.
//
//	go run ./bench -seed 1 [-trace 1] [-runs 10] [-o set.json]
//
// runs all workloads (each in a child process), and
//
//	go run ./bench -compare a.json b.json
//
// compares two such sets against the bounds in BENCHMARK.json. See
// README.md in this directory for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// engineWorkers is the execution-engine worker count every workload runs
// at. It is fixed, not derived from the host, so numbers from two hosts with
// at least that many CPUs describe the same program.
const engineWorkers = 2

// A run builds its workload from scratch several times and reports the
// median as setup_s, so one slow page-fault storm or fsync does not set it:
// at least minSetupRepeats times, and more — up to maxSetupRepeats — while
// the set-ups together stay under setupBudget, because the cheap set-ups are
// the noisy ones.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 9
	setupBudget     = 3 * time.Second
)

// outDir receives the span files and per-run reports. It is inside the
// benchmark's own directory and ignored by git.
const outDir = "bench/out"

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
}

// workload is one set of inputs the benchmark runs. A workload value is
// built fresh for every set-up repeat; only the last one is measured.
type workload interface {
	// setup builds contexts, keys, encoded transforms and (for serve) the
	// daemon. Everything it does is charged to setup_s.
	setup(r *run) error
	// measure runs the first (cold) unit of work, then the timed loop for
	// d, recording samples and correctness on r.
	measure(r *run, d time.Duration) error
	// layers runs the traced-only measurements: per-level and per-part
	// timings and the kernel micro-loops at the workload's shape.
	layers(r *run) error
	// close releases what setup started (engines, daemon, temp files).
	close()
}

var workloads = map[string]func(cfg config) workload{
	"boot_ins1_n12":     func(cfg config) workload { return newBoot(cfg) },
	"nnlayer_dnum4_n14": func(cfg config) workload { return newNNLayer(cfg) },
	"prim_dnum3_n17":    func(cfg config) workload { return newPrim(cfg) },
	"serve_mixed":       func(cfg config) workload { return newServe(cfg) },
}

func main() {
	var cfg config
	var traceFlag, runs int
	var compare bool
	var setFile string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (empty: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for inputs, job order and keys")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed section (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
	flag.BoolVar(&cfg.short, "short", false, "toy parameter sets (harness smoke test; numbers are meaningless)")
	flag.IntVar(&runs, "runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&setFile, "o", "", "all-workloads mode: write the set of results to this file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		os.Exit(compareSets(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	case cfg.workload == "":
		os.Exit(runAll(spec, cfg, runs, setFile))
	default:
		os.Exit(runOne(spec, cfg))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne measures one workload in this process and prints the result line.
func runOne(spec *benchSpec, cfg config) int {
	mk, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	if runtime.NumCPU() < engineWorkers && !cfg.short {
		fatal(fmt.Errorf("host has %d CPU, the workloads run the engine at %d workers", runtime.NumCPU(), engineWorkers))
	}
	r := newRun(cfg)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	if err := r.guard(func() error { return r.execute(mk) }); err != nil {
		r.fail("run aborted: %v", err)
	}

	wanted := spec.EndToEnd
	if cfg.trace {
		wanted = spec.PerLayer
	}
	result, missing := r.result(wanted)
	for _, name := range missing {
		r.fail("metric %s was not measured", name)
	}
	result.Correct = r.failed == 0
	result.Failed = r.failed
	r.print(os.Stdout)
	if err := r.writeReport(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: report:", err)
	}
	if err := r.rec.write(filepath.Join(outDir, "trace-"+cfg.workload+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trace:", err)
	}
	line, err := json.Marshal(result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !result.Correct {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "bench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// execute is the run protocol shared by all workloads: build the workload
// several times (untraced runs; a traced run reports no setup_s and builds
// once), run the cold unit and the timed loop, read steady memory,
// and in a traced run the per-layer measurements.
func (r *run) execute(mk func(config) workload) error {
	repeats := maxSetupRepeats
	if r.cfg.trace || r.cfg.short {
		repeats = 1
	}
	var w workload
	var setups []time.Duration
	var spent time.Duration
	for i := 0; i < repeats && (i < minSetupRepeats || spent < setupBudget); i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		w = mk(r.cfg)
		start := time.Now()
		err := w.setup(r)
		setups = append(setups, time.Since(start))
		spent += setups[i]
		if err != nil {
			w.close()
			return fmt.Errorf("setup: %w", err)
		}
	}
	defer w.close()
	r.sample("setup_s", "s", setups)
	r.set("setup_s", "s", median(setups).Seconds())

	// Layer metrics that are zero wherever the layer is not entered: the
	// bootstrap phases' shares of the unit of work, and what only a job
	// through the daemon moves. The workloads that do enter them overwrite.
	for _, name := range []string{"ckks.modraise_share", "ckks.cts_share", "ckks.evalmod_share", "ckks.stc_share",
		"serve.transport_share"} {
		r.set(name, "ratio", 0)
	}
	r.set("wire.bytes_per_op_in", "B", 0)
	r.set("wire.bytes_per_op_out", "B", 0)
	r.set("serve.batch_size_mean", "jobs", 0)
	r.set("serve.register_bytes", "B", 0)

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := w.measure(r, time.Duration(r.cfg.seconds*float64(time.Second))); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	r.set("go.gc_pause_ms", "ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	r.set("go.gc_cycles", "cycles", float64(gc1.NumGC-gc0.NumGC))

	// Steady memory: what stays live once the timed section is over — keys,
	// encoded transforms, retained caches and pools. w is still referenced.
	r.set("mem_steady_mib", "MiB", steadyMiB())
	r.set("precision_bits", "bits", r.precisionBits())
	// Read before the kernel micro-loops, whose stream arrays would own it.
	r.set("go.peak_rss_mib", "MiB", peakRSSMiB())

	if r.cfg.trace {
		if err := w.layers(r); err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		r.traceMetrics()
	}
	return nil
}

// runAll runs every workload of BENCHMARK.json `runs` times in child
// processes of this binary, echoes their metric listings, and optionally
// writes the set file -compare reads.
func runAll(spec *benchSpec, cfg config, runs int, setFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	set := resultSet{Host: hostInfo(), Commit: commit(), Seconds: cfg.seconds}
	status := 0
	for _, wl := range spec.Workloads {
		for i := 0; i < runs; i++ {
			c := cfg
			c.workload, c.seed = wl.Name, cfg.seed+int64(i)
			res, err := runChild(self, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", wl.Name, c.seed, err)
				status = 1
				if res == nil {
					continue
				}
			}
			set.Runs = append(set.Runs, *res)
		}
	}
	if setFile != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(setFile, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	return status
}

// commit returns the VCS revision the binary was built from, when the
// toolchain stamped one (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sortedKeys returns the keys of m in order, for stable listings.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
