package serve

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bts/internal/telemetry"
)

// Span names of the serving layer. The per-job span tree is rooted at
// "serve.job" (submit to completion); "serve.queue" covers submit to
// dispatch; each stage the scheduler ran gets a "dag.stage" span under the
// root, each executed op an "op.<kind>" span under its stage, and the
// evaluator's own spans (ckks.*, bootstrap.*) nest under the op that ran
// them.
var (
	spanJob   = telemetry.Name("serve.job")
	spanQueue = telemetry.Name("serve.queue")
	spanStage = telemetry.Name("dag.stage")

	opSpanNames = map[OpKind]uint32{
		OpAdd:       telemetry.Name("op.add"),
		OpSub:       telemetry.Name("op.sub"),
		OpMul:       telemetry.Name("op.mul"),
		OpRotate:    telemetry.Name("op.rot"),
		OpConjugate: telemetry.Name("op.conj"),
		OpRescale:   telemetry.Name("op.rescale"),
		OpBootstrap: telemetry.Name("op.bootstrap"),
		OpMulPlain:  telemetry.Name("op.pmul"),
	}
)

// maxRetainedDumps bounds the job trace dumps the server keeps (newest
// first); older dumps fall off.
const maxRetainedDumps = 16

// telemetryState is the server's observability bundle: the metrics registry
// and every counter the scheduler and job runner bump, plus the job tracer
// and its retained job dumps. It exists (s.tel != nil) whenever metrics
// or tracing is enabled; reg is nil when metrics are disabled, tracer is nil
// when no slow-job threshold is set.
type telemetryState struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	// ctxStats and wire are handed to ckks.Context.SetStats and
	// wire.Codec.SetStats; the layers below bump them through nil-guarded
	// pointers.
	ctxStats telemetry.ContextStats
	wire     telemetry.WireStats

	jobsOK, jobsErr atomic.Int64
	jobsCancelled   atomic.Int64 // canceled or deadline-expired before producing a result
	slowJobs        atomic.Int64
	quotaRejections atomic.Int64 // uploads rejected by SessionQuotaBytes
	quarantines     atomic.Int64 // sessions quarantined after repeated faults

	hoistShared atomic.Int64 // rotation fans served by one shared decomposition
	encHits     atomic.Int64 // pmul encodings served from a session cache
	encMisses   atomic.Int64 // pmul encodings computed (cache miss or disabled-cache path skips both)
	regSpills   atomic.Int64 // registers spilled to the durable store
	regReloads  atomic.Int64 // registers rehydrated from the durable store

	jobLatency *telemetry.Histogram // submit-to-completion seconds

	// opLat holds one latency histogram per (op kind, result level) pair,
	// created on first observation. The map is tiny (kinds × levels) and
	// mutex cost is noise next to the millisecond-scale FHE ops it brackets.
	opMu  sync.Mutex
	opLat map[opLatKey]*telemetry.Histogram

	// panics counts recovered job panics per op kind
	// (bts_job_panics_total{op=...}); panics are rare, so a mutex-guarded
	// map beats pre-sizing a histogram per kind.
	panicMu sync.Mutex
	panics  map[OpKind]int64

	dumpMu sync.Mutex
	dumps  []SlowJobDump
}

type opLatKey struct {
	kind  OpKind
	level int
}

// SlowJobDump is one retained job trace: the job's identity, why it was
// retained ("slow" for jobs over the slow-job threshold, "panic" for jobs
// whose op panicked), and its reconstructed span tree
// (telemetry.Tracer.RenderTree), served by GET /v1/traces.
type SlowJobDump struct {
	Session   string  `json:"session"`
	Ops       int     `json:"ops"`
	LatencyMs float64 `json:"latency_ms"`
	Reason    string  `json:"reason"`
	Error     string  `json:"error,omitempty"`
	Tree      string  `json:"tree"`
}

func newTelemetryState(cfg *Config) *telemetryState {
	ts := &telemetryState{
		jobLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()),
		opLat:      make(map[opLatKey]*telemetry.Histogram),
		panics:     make(map[OpKind]int64),
	}
	if cfg.SlowJob > 0 {
		ts.tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	}
	if !cfg.DisableMetrics {
		ts.reg = telemetry.NewRegistry()
	}
	return ts
}

// registerCollectors wires every metric source into the registry, in a fixed
// order so scrapes render stably: context (engine + pools), wire codec,
// scheduler, key cache, per-session series, per-op latency histograms.
func (s *Server) registerCollectors() {
	reg := s.tel.reg
	reg.Register(s.tel.ctxStats.Collect)
	reg.Register(s.tel.wire.Collect)
	reg.Register(s.tel.collectScheduler)
	reg.Register(s.collectKeyCache)
	reg.Register(s.collectSessions)
	reg.Register(s.tel.collectOpLatency)
}

func (ts *telemetryState) collectScheduler(w *telemetry.Writer) {
	w.Counter("bts_jobs_total", "Jobs completed.",
		[]telemetry.Label{{Name: "result", Value: "ok"}}, float64(ts.jobsOK.Load()))
	w.Counter("bts_jobs_total", "Jobs completed.",
		[]telemetry.Label{{Name: "result", Value: "error"}}, float64(ts.jobsErr.Load()))
	w.Counter("bts_jobs_total", "Jobs completed.",
		[]telemetry.Label{{Name: "result", Value: "canceled"}}, float64(ts.jobsCancelled.Load()))
	w.Counter("bts_slow_jobs_total", "Jobs that exceeded the slow-job threshold.", nil, float64(ts.slowJobs.Load()))
	w.Counter("bts_quota_rejections_total", "Key uploads rejected by the per-tenant quota.", nil, float64(ts.quotaRejections.Load()))
	w.Counter("bts_session_quarantines_total", "Sessions quarantined after repeated job faults.", nil, float64(ts.quarantines.Load()))
	w.Counter("bts_hoist_shared_decompositions_total", "Rotation fans served by one shared key-switch decomposition (scheduler auto-hoisting).", nil, float64(ts.hoistShared.Load()))
	w.Counter("bts_encoding_cache_hits_total", "Plaintext (pmul) encodings served from a session's encoding cache.", nil, float64(ts.encHits.Load()))
	w.Counter("bts_encoding_cache_misses_total", "Plaintext (pmul) encodings computed on cache miss.", nil, float64(ts.encMisses.Load()))
	w.Counter("bts_register_spills_total", "Ciphertext registers spilled to the durable store.", nil, float64(ts.regSpills.Load()))
	w.Counter("bts_register_reloads_total", "Ciphertext registers rehydrated from the durable store.", nil, float64(ts.regReloads.Load()))
	ts.panicMu.Lock()
	kinds := make([]OpKind, 0, len(ts.panics))
	counts := make(map[OpKind]int64, len(ts.panics))
	for k, n := range ts.panics {
		kinds = append(kinds, k)
		counts[k] = n
	}
	ts.panicMu.Unlock()
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		w.Counter("bts_job_panics_total", "Job op panics recovered, per op kind.",
			[]telemetry.Label{{Name: "op", Value: string(k)}}, float64(counts[k]))
	}
	w.Histogram("bts_job_latency_seconds", "Submit-to-completion job latency (queueing included).", nil, ts.jobLatency)
	if ts.tracer != nil {
		w.Counter("bts_trace_spans_total", "Spans recorded by the job tracer.", nil, float64(ts.tracer.Spans()))
	}
}

// collectKeyCache renders the decoded-key governance series: resident bytes
// under LRU control, evictions to disk, and reloads from it.
func (s *Server) collectKeyCache(w *telemetry.Writer) {
	w.Gauge("bts_key_resident_bytes", "Decoded evaluation-key bytes resident under LRU control.", nil, float64(s.keys.residentBytes()))
	w.Counter("bts_key_evictions_total", "Session key sets evicted to disk under key-memory pressure.", nil, float64(s.keys.evictions.Load()))
	w.Counter("bts_key_reloads_total", "Session key sets rehydrated from the durable store.", nil, float64(s.keys.reloads.Load()))
}

// collectSessions renders the queue gauge plus the per-session series:
// serving counters, the evaluator's op mix (the same counters /v1/stats
// reports as op_mix, monotonic across evictions), residency, and the
// running noise floor.
func (s *Server) collectSessions(w *telemetry.Writer) {
	s.mu.Lock()
	depth := len(s.pending)
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].name < sessions[j].name })

	w.Gauge("bts_queue_depth", "Jobs queued and not yet dispatched.", nil, float64(depth))
	w.Gauge("bts_sessions_open", "Open sessions.", nil, float64(len(sessions)))
	var regCount int
	var regBytes int64
	for _, sess := range sessions {
		c, b := sess.registerStats()
		regCount += c
		regBytes += b
	}
	w.Gauge("bts_registers", "Ciphertext registers resident in memory across sessions.", nil, float64(regCount))
	w.Gauge("bts_register_bytes", "Resident ciphertext-register bytes across sessions.", nil, float64(regBytes))
	for _, sess := range sessions {
		sl := []telemetry.Label{{Name: "session", Value: sess.name}}
		sess.stats.mu.Lock()
		jobs, errs, qd := sess.stats.jobs, sess.stats.errors, sess.stats.queueDepth
		sess.stats.mu.Unlock()
		w.Counter("bts_session_jobs_total", "Jobs completed per session.", sl, float64(jobs))
		w.Counter("bts_session_errors_total", "Failed jobs per session.", sl, float64(errs))
		w.Gauge("bts_session_queue_depth", "Jobs submitted but not completed, per session.", sl, float64(qd))

		sess.mu.Lock()
		resident := sess.eval != nil
		mix := sess.opsBase
		if sess.eval != nil {
			mix = mix.Add(sess.eval.Counters())
		}
		sess.mu.Unlock()
		w.Gauge("bts_session_keys_resident", "Whether the session's decoded keys are in memory (1) or evicted/cold (0).",
			sl, boolGauge(resident))
		_, sessRegBytes := sess.registerStats()
		w.Gauge("bts_session_register_bytes", "Resident ciphertext-register bytes per session.", sl, float64(sessRegBytes))
		for _, kv := range []struct {
			kind string
			v    int64
		}{
			{"mult", mix.Mult}, {"full_rot", mix.FullRot}, {"hoisted_rot", mix.HoistedRot},
			{"decompose", mix.Decompose}, {"mod_down", mix.ModDown}, {"rescale", mix.Rescale},
			{"pmult", mix.PMult}, {"mod_raise", mix.ModRaise}, {"key_switch", mix.KeySwitchTotal()},
		} {
			w.Counter("bts_session_ops_total", "Primitive-op mix executed per session (evaluator counters).",
				[]telemetry.Label{{Name: "session", Value: sess.name}, {Name: "kind", Value: kv.kind}}, float64(kv.v))
		}
		if sess.noise != nil {
			// The gauge is the minimum noise margin (bits of modulus headroom)
			// ever observed on this session; +Inf (nothing observed yet) is
			// skipped by the writer.
			w.Gauge("bts_noise_floor_bits", "Minimum noise margin observed per session (bits of modulus headroom).",
				sl, sess.noise.MinBits())
		}
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (ts *telemetryState) collectOpLatency(w *telemetry.Writer) {
	ts.opMu.Lock()
	keys := make([]opLatKey, 0, len(ts.opLat))
	hists := make(map[opLatKey]*telemetry.Histogram, len(ts.opLat))
	for k, h := range ts.opLat {
		keys = append(keys, k)
		hists[k] = h
	}
	ts.opMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].level < keys[j].level
	})
	for _, k := range keys {
		labels := []telemetry.Label{
			{Name: "op", Value: string(k.kind)},
			{Name: "level", Value: strconv.Itoa(k.level)},
		}
		w.Histogram("bts_op_latency_seconds", "Per-op execution latency, keyed by op kind and result level.", labels, hists[k])
	}
}

func (ts *telemetryState) observeOp(kind OpKind, level int, d time.Duration) {
	k := opLatKey{kind: kind, level: level}
	ts.opMu.Lock()
	h := ts.opLat[k]
	if h == nil {
		h = telemetry.NewHistogram(telemetry.LatencyBuckets())
		ts.opLat[k] = h
	}
	ts.opMu.Unlock()
	h.Observe(d.Seconds())
}

// observePanic counts a recovered job panic against its op kind.
func (ts *telemetryState) observePanic(kind OpKind) {
	ts.panicMu.Lock()
	ts.panics[kind]++
	ts.panicMu.Unlock()
}

// retainDump renders and retains the span tree of a job worth keeping: one
// that exceeded the slow-job threshold (reason "slow") or whose op panicked
// (reason "panic", with the typed error attached). Caller must have checked
// ts.tracer != nil.
func (ts *telemetryState) retainDump(j *job, lat time.Duration, reason string, err error) {
	dump := SlowJobDump{
		Session:   j.sess.name,
		Ops:       len(j.prog.nodes),
		LatencyMs: lat.Seconds() * 1e3,
		Reason:    reason,
		Tree:      ts.tracer.RenderTree(j.tr.ID()),
	}
	if err != nil {
		dump.Error = err.Error()
	}
	if reason == "slow" {
		ts.slowJobs.Add(1)
	}
	ts.dumpMu.Lock()
	ts.dumps = append(ts.dumps, SlowJobDump{})
	copy(ts.dumps[1:], ts.dumps)
	ts.dumps[0] = dump
	if len(ts.dumps) > maxRetainedDumps {
		ts.dumps = ts.dumps[:maxRetainedDumps]
	}
	ts.dumpMu.Unlock()
}

// SlowJobDumps returns the retained job trace dumps, newest first
// (empty slice — never nil — when tracing is disabled or nothing was
// retained).
func (s *Server) SlowJobDumps() []SlowJobDump {
	out := []SlowJobDump{}
	if s.tel == nil {
		return out
	}
	s.tel.dumpMu.Lock()
	out = append(out, s.tel.dumps...)
	s.tel.dumpMu.Unlock()
	return out
}
