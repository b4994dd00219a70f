// Package serve is the multi-tenant FHE serving runtime of the repository:
// the software analogue of the BTS paper's framing of bootstrappable CKKS as
// a service whose throughput comes from keeping many client ciphertexts in
// flight, not only from fast kernels (Section 1; FAB makes the same point
// for FPGA hosts).
//
// Clients open named sessions by uploading evaluation keys (relinearization
// and rotation keys — never the secret key), then submit jobs: programs of
// primitive HE ops (Add/Sub/Mult/Rotate/Conjugate/Rescale/Bootstrap, plus
// plaintext products) over wire-format ciphertexts. A dispatcher batches
// compatible jobs (same session: they share key material, keeping
// key-switching tables hot) and executes each batch with one goroutine per
// job, so several ciphertexts are in flight across the context's shared
// limb-parallel ring.Engine at once. Results come from the context's
// ciphertext pool and every intermediate returns to it, so steady-state
// serving allocates nothing per job.
//
// # DAG jobs and ciphertext registers
//
// Every job is a DAG over named ciphertext registers (see Op). A "$x"
// register belongs to the session: ops read registers and commit their
// results to fresh ones, and the values persist server-side across requests
// within the session — so a multi-request pipeline uploads inputs once,
// chains jobs over the registers, and downloads only the final outputs at
// the DAG boundary (SubmitDAG / Client.DoDAG). A "%x" register is
// job-local: it exists only inside its job and its value goes back to the
// ciphertext pool when the job ends. Client.Do keeps the original slot form
// as client-side sugar: it lowers a flat program over the job's inputs onto
// job-local registers, so a slot job leaves nothing behind. The scheduler
// compiles the DAG into one dependency graph, executes it in topologically
// ordered stages with the independent ops of a stage running concurrently,
// and applies two operand-reuse optimizations a flat interpreter could not
// see:
//
//   - Auto-hoisting: two or more rotations of the same value in one stage
//     share a single key-switch decomposition (internal/ckks hoisting) —
//     and when the value is a resident register, the decomposition is
//     reused across all jobs of the batch. The slot form's "roth" op lowers
//     onto this path, bit-identical to a hand-hoisted fan.
//   - Encoding cache: "pmul" plaintext vectors are encoded once per
//     session (LRU of encodingCacheEntries) instead of per job.
//
// Session register bytes are charged against the same
// Config.SessionQuotaBytes as key uploads (commit fails with CodeQuota when
// keys + registers would exceed it). Under key-memory pressure — and on
// drain — a session's registers spill to the durable store alongside its
// keys and rehydrate on its next job, so eviction and clean restarts lose
// no register; a crash loses registers committed since the last spill, and
// jobs naming them fail with a terminal CodeBadJob. Program errors
// (dangling register reference, dependency cycle, malformed names, and ops
// the evaluator cannot run: mismatched scales, a missing key, rescale at
// level 0) are rejected with CodeBadJob; a mid-DAG fault or cancellation
// skips every dependent op while results already committed to registers
// stay committed.
//
// # Fault tolerance
//
// The runtime is built to lose neither tenants nor correctness across
// restarts and faults:
//
//   - Durability: with Config.StoreDir set, every session's uploaded keys
//     persist to an on-disk store (wire blobs + checksummed manifest,
//     committed by atomic rename — see store.go). A restarted daemon lists
//     the manifests (~1 KiB each) and rehydrates a session's keys lazily on
//     its first batch, so a rolling restart drops no tenant.
//   - Key-memory governance: Config.SessionQuotaBytes rejects uploads whose
//     decoded key footprint exceeds the per-tenant budget, and
//     Config.KeyCacheBytes bounds the total decoded-key memory with an LRU
//     that evicts cold sessions' keys back to their disk blobs (see
//     keycache.go). /metrics exports resident bytes, evictions and reloads.
//   - Lifecycle: SubmitDAG threads a context from HTTP ingress through
//     the scheduler; a job canceled while queued never executes, and an
//     expired deadline aborts between ops. A panicking op fails only its
//     job (typed retryable error, bts_job_panics_total, trace dump on
//     /v1/traces) and quarantines the session after quarantineAfter (3)
//     consecutive faults. Drain stops admission and
//     waits for in-flight work, backing graceful SIGTERM shutdown.
//   - Every failure carries a typed *Error whose Retryable flag the client
//     honors with exponential backoff + jitter (see errors.go, client.go);
//     internal/faultinject failpoints are compiled into the store,
//     scheduler and op paths to chaos-test all of the above.
//
// The package exposes the runtime three ways: the embeddable Server type,
// an http.Handler speaking the internal/wire format (cmd/btsserve wraps it
// in a daemon), and a Client for the other side of the socket (used by
// cmd/btsbench, the benchmark's serve workload and the end-to-end tests).
package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"bts/internal/ckks"
	"bts/internal/wire"
)

// Config parameterizes a Server. The zero value of every tuning knob picks a
// sensible default; Params is mandatory.
type Config struct {
	// Params is the CKKS parameter set every session shares. Clients must
	// build the identical set (GET /v1/params serves it) or their wire
	// objects will fail validation.
	Params ckks.Parameters
	// Workers sets the execution engine's worker count; 0 keeps the shared
	// GOMAXPROCS-sized default pool.
	Workers int
	// BatchSize caps the number of jobs the dispatcher runs concurrently in
	// one batch (default 8).
	BatchSize int
	// Parallel caps the number of batches in flight at once (default 4).
	// Batches group jobs of one session; running several batches
	// concurrently is what lets distinct tenants overlap on the shared
	// engine, so total ciphertexts in flight ≤ BatchSize × Parallel.
	Parallel int
	// BatchWindow is how long the dispatcher lingers for additional
	// compatible jobs when a session's pending batch is smaller than
	// BatchSize. The linger is tracked per session: while one session's
	// undersized batch waits out its window, ready batches of other sessions
	// dispatch immediately. 0 selects the 200µs default; a negative value
	// disables lingering.
	BatchWindow time.Duration
	// MaxQueue bounds the number of queued jobs before Submit fails fast
	// (default 1024).
	MaxQueue int
	// Bootstrap, when non-nil, builds a bootstrapper for every session whose
	// rotation keys cover the required rotations, enabling the "bootstrap"
	// op. The parameter chain must afford BootstrapParams.MinLevels().
	Bootstrap *ckks.BootstrapParams

	// StoreDir, when non-empty, enables the durable session store rooted
	// there: sessions and their uploaded key sets survive restarts (see the
	// Fault tolerance section of the package docs).
	StoreDir string
	// SessionQuotaBytes caps one session's decoded evaluation-key footprint
	// at upload time (0 = unlimited). Oversized uploads fail with a typed
	// CodeQuota error, HTTP 413.
	SessionQuotaBytes int64
	// KeyCacheBytes bounds the total decoded evaluation-key bytes resident
	// in memory across sessions (0 = unlimited). Requires StoreDir: evicted
	// keys reload from disk on the session's next batch.
	KeyCacheBytes int64
	// DefaultJobTimeout is the per-job deadline applied when a request does
	// not carry its own (0 = none). Expiry fails the job with CodeDeadline:
	// while queued it never executes, mid-job it aborts between ops.
	DefaultJobTimeout time.Duration
	// DisableMetrics turns off the Prometheus registry (GET /metrics and
	// /debug/vars disappear from the handler) and detaches the engine, pool,
	// and wire counters. The zero value keeps metrics on: the counters are
	// atomic adds next to millisecond-scale FHE ops, so serving pays nothing
	// measurable for them.
	DisableMetrics bool
	// SlowJob, when positive, traces every job and retains the reconstructed
	// span tree of any job whose submit-to-completion latency meets the
	// threshold (GET /v1/traces, newest first). Zero disables tracing: the
	// instrumented paths then reduce to nil checks.
	SlowJob time.Duration
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ on the
	// server's HTTP API. Off by default: profiling endpoints on a serving
	// port are opt-in.
	Pprof bool
}

func (cfg *Config) applyDefaults() {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 4
	}
	if cfg.BatchWindow < 0 {
		cfg.BatchWindow = 0
	} else if cfg.BatchWindow == 0 {
		cfg.BatchWindow = 200 * time.Microsecond
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1024
	}
}

// Server is the serving runtime: a session registry plus a batching
// dispatcher over one shared ckks.Context. All methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	ctx     *ckks.Context
	codec   *wire.Codec // pooled: decoded ciphertexts recycle through the ctx pool
	encoder *ckks.Encoder
	started time.Time

	// store is the durable session store (nil without Config.StoreDir) and
	// keys the decoded-key LRU governor (always non-nil; unbounded when
	// KeyCacheBytes is 0).
	store *Store
	keys  *keyCache

	// tel is the observability bundle (metrics registry, counters, job
	// tracer); nil when both metrics and tracing are disabled, and every
	// instrumentation site nil-checks it.
	tel *telemetryState

	// bootRotations caches the rotation set bootstrapping needs (probed once
	// with a keyless evaluator), so /v1/params can tell clients what keys to
	// generate. With the factored (radix-stage) CoeffToSlot/SlotToCoeff
	// pipeline this is the stage chains' union — a fraction of the dense
	// matrices' requirement, which shrinks every tenant's key upload
	// accordingly (rotation keys dominate session-open traffic). Empty when
	// bootstrapping is disabled or unavailable.
	bootRotations []int

	mu       sync.Mutex
	sessions map[string]*session
	pending  []*job
	closed   bool
	draining bool
	// linger holds, per session with an undersized pending batch, the
	// deadline until which the dispatcher waits for more of that session's
	// jobs before dispatching the batch anyway. Tracking it per session —
	// not server-wide — is what lets a ready (full or expired) batch of one
	// tenant dispatch immediately while another tenant's half-full batch at
	// the head of the queue is still lingering.
	linger map[*session]time.Time
	wakeAt time.Time  // earliest armed linger wakeup (zero = none armed)
	cond   *sync.Cond // signals the dispatcher that pending/closed changed

	// batches tracks in-flight batch executions; Drain waits on it after
	// the queue empties.
	batches sync.WaitGroup

	dispatcherDone chan struct{}
}

// New builds a Server and starts its dispatcher. With Config.StoreDir set,
// stored sessions are listed (manifests only) and registered for lazy
// rehydration, so tenants persisted by a previous process are immediately
// addressable.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if cfg.KeyCacheBytes > 0 && cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: KeyCacheBytes without StoreDir: evicted keys would be unrecoverable")
	}
	ctx, err := ckks.NewContext(cfg.Params)
	if err != nil {
		return nil, err
	}
	if cfg.Workers > 0 {
		ctx.SetWorkers(cfg.Workers)
	}
	s := &Server{
		cfg:      cfg,
		ctx:      ctx,
		codec:    wire.NewPooledCodec(ctx),
		encoder:  ckks.NewEncoder(ctx),
		started:  time.Now(),
		keys:     newKeyCache(cfg.KeyCacheBytes),
		sessions: make(map[string]*session),
		linger:   make(map[*session]time.Time),

		dispatcherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if !cfg.DisableMetrics || cfg.SlowJob > 0 {
		s.tel = newTelemetryState(&s.cfg)
		if s.tel.reg != nil {
			// SetStats instruments a context-private engine (installing one if
			// the context still shares ring.DefaultEngine), so scrapes never
			// see other tenants of the process-wide pool.
			ctx.SetStats(&s.tel.ctxStats)
			s.codec.SetStats(&s.tel.wire)
			s.registerCollectors()
		}
	}
	if cfg.Bootstrap != nil {
		// Probe the rotation requirements with a keyless evaluator; sessions
		// whose key sets cover them get a working bootstrapper.
		probe := ckks.NewEvaluator(ctx, s.encoder, nil, nil)
		bt, err := ckks.NewBootstrapper(ctx, s.encoder, probe, *cfg.Bootstrap)
		if err != nil {
			return nil, fmt.Errorf("serve: bootstrap enabled but unavailable: %w", err)
		}
		s.bootRotations = bt.Rotations()
	}
	if cfg.StoreDir != "" {
		store, err := OpenStore(cfg.StoreDir, ctx)
		if err != nil {
			return nil, err
		}
		s.store = store
		manifests, _ := store.List()
		for _, m := range manifests {
			sess := s.newSession(m.Name)
			sess.onDisk = true
			sess.keyBytes = m.KeyBytes
			sess.created = time.Unix(m.CreatedUnix, 0)
			// The previous process may have spilled registers; load them
			// lazily on the session's first DAG job.
			sess.regsLoaded = false
			s.sessions[m.Name] = sess
		}
	}
	go s.dispatch()
	return s, nil
}

// newSession builds a session shell (no evaluator yet). A fresh session's
// register set is trivially complete; the restart path flips regsLoaded
// off to defer to the store.
func (s *Server) newSession(name string) *session {
	sess := &session{name: name, created: time.Now(), regsLoaded: true}
	if s.tel != nil {
		// Attach the session's running noise floor once, at open time, so
		// steady-state jobs keep allocating nothing: evaluator copies share
		// the floor (and the op counters) by pointer.
		sess.noise = ckks.NewNoiseFloor()
	}
	return sess
}

// Context returns the shared evaluation context (useful for embedding the
// server in-process, e.g. the load generator's verification path).
func (s *Server) Context() *ckks.Context { return s.ctx }

// Codec returns the server's pooled wire codec.
func (s *Server) Codec() *wire.Codec { return s.codec }

// BootstrapRotations returns the rotation amounts a session's key set must
// cover for the "bootstrap" op, or nil when bootstrapping is disabled.
func (s *Server) BootstrapRotations() []int {
	return append([]int(nil), s.bootRotations...)
}

// keySetBytes is the decoded in-memory footprint of an uploaded key set —
// the quota and LRU accounting unit.
func keySetBytes(rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) int64 {
	var n int64
	if rlk != nil {
		n += rlk.Bytes()
	}
	if rtks != nil {
		for _, k := range rtks.Keys {
			n += k.Bytes()
		}
	}
	return n
}

// buildRuntime constructs the evaluator (sharing the session's noise floor)
// and, when covered, the bootstrapper for a key set.
func (s *Server) buildRuntime(sess *session, rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) (*ckks.Evaluator, *ckks.Bootstrapper, error) {
	eval := ckks.NewEvaluator(s.ctx, s.encoder, rlk, rtks)
	if sess.noise != nil {
		eval = eval.WithNoiseFloor(sess.noise)
	}
	var bt *ckks.Bootstrapper
	if s.cfg.Bootstrap != nil && rlk != nil && rtks != nil && coversRotations(s.ctx, rtks, s.bootRotations) {
		var err error
		bt, err = ckks.NewBootstrapper(s.ctx, s.encoder, eval, *s.cfg.Bootstrap)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: building bootstrapper for session %q: %w", sess.name, err)
		}
	}
	return eval, bt, nil
}

// OpenSession registers (or replaces) a named session with the given
// evaluation keys. rlk may be nil (jobs using "mul" will fail); rtks may be
// nil (jobs using "rot"/"conj" will fail). When the server was built with
// bootstrapping enabled and the rotation keys cover the required set, the
// session also gets a bootstrapper.
//
// The upload is checked against Config.SessionQuotaBytes and, when the
// durable store is configured, persisted before the session goes live —
// write-through, so a session that was ever open survives a crash.
// Reopening a session clears its quarantine, resets its fault ledger, and
// discards its ciphertext registers (in memory and on disk): new keys mean
// the old registers may not even decrypt under the tenant's secret key.
func (s *Server) OpenSession(name string, rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) error {
	if name == "" {
		return errf(CodeInvalid, "empty session name")
	}
	if len(name) > maxSessionName {
		return errf(CodeInvalid, "session name of %d bytes over the %d limit", len(name), maxSessionName)
	}
	keyBytes := keySetBytes(rlk, rtks)
	if q := s.cfg.SessionQuotaBytes; q > 0 && keyBytes > q {
		if s.tel != nil {
			s.tel.quotaRejections.Add(1)
		}
		return errf(CodeQuota, "session %q key set of %d bytes exceeds the %d-byte tenant quota", name, keyBytes, q)
	}
	sess := s.newSession(name)
	eval, bt, err := s.buildRuntime(sess, rlk, rtks)
	if err != nil {
		return err
	}
	sess.eval = eval
	sess.bt = bt
	sess.bootstrappable = bt != nil
	sess.keyBytes = keyBytes
	if s.store != nil {
		if err := s.store.Save(name, rlk, rtks, keyBytes); err != nil {
			return err
		}
		sess.onDisk = true
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return errServerClosed
	}
	old := s.sessions[name]
	s.sessions[name] = sess
	s.mu.Unlock()
	if old != nil {
		s.keys.drop(old)
	}
	s.evictVictims(s.keys.touch(sess, keyBytes))
	return nil
}

// coversRotations reports whether rtks holds a key for every rotation amount
// in rots plus conjugation.
func coversRotations(ctx *ckks.Context, rtks *ckks.RotationKeySet, rots []int) bool {
	for _, r := range rots {
		if _, ok := rtks.Keys[ctx.RingQ.GaloisElement(r)]; !ok {
			return false
		}
	}
	_, ok := rtks.Keys[ctx.RingQ.GaloisConjugate()]
	return ok
}

// CloseSession removes a session, in memory and (when the store is
// configured) on disk. In-flight jobs finish; queued jobs for the session
// fail when dispatched.
func (s *Server) CloseSession(name string) {
	s.mu.Lock()
	sess := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if sess != nil {
		s.keys.drop(sess)
	}
	if s.store != nil {
		_ = s.store.Delete(name)
	}
}

// session lookup helper.
func (s *Server) session(name string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[name]
	if !ok {
		return nil, errf(CodeInvalid, "unknown session %q", name)
	}
	return sess, nil
}

// sessionRuntime returns the session's evaluator and bootstrapper,
// rehydrating the decoded keys from the durable store when the session is
// cold (restart, or evicted under key-memory pressure), and touches the
// key-cache LRU. Called by the dispatcher once per batch.
func (s *Server) sessionRuntime(sess *session) (*ckks.Evaluator, *ckks.Bootstrapper, error) {
	if ev, bt := sess.runtime(); ev != nil {
		s.evictVictims(s.keys.touch(sess, sess.keyFootprint()))
		return ev, bt, nil
	}
	sess.hydMu.Lock()
	defer sess.hydMu.Unlock()
	if ev, bt := sess.runtime(); ev != nil { // hydrated while we waited
		return ev, bt, nil
	}
	if s.store == nil {
		return nil, nil, errf(CodeInternal, "session %q has no resident keys and no durable store", sess.name)
	}
	rlk, rtks, keyBytes, err := s.store.Load(sess.name)
	if err != nil {
		return nil, nil, err
	}
	eval, bt, err := s.buildRuntime(sess, rlk, rtks)
	if err != nil {
		return nil, nil, errf(CodeStore, "rehydrating session %q: %v", sess.name, err)
	}
	sess.mu.Lock()
	sess.eval = eval
	sess.bt = bt
	sess.bootstrappable = bt != nil
	sess.keyBytes = keyBytes
	sess.onDisk = true
	sess.mu.Unlock()
	s.keys.reloads.Add(1)
	s.evictVictims(s.keys.touch(sess, keyBytes))
	return eval, bt, nil
}

// evictVictims drops the decoded keys of sessions the LRU selected,
// spilling their resident registers to the durable store first — the LRU
// only nominates idle sessions, so the spill races no commit, and the
// session's next DAG job rehydrates both keys and registers.
func (s *Server) evictVictims(victims []*session) {
	for _, v := range victims {
		s.spillRegisters(v)
		v.evict()
	}
}

// SubmitDAG enqueues a job and blocks until its outputs, the context's
// cancellation, or its deadline. inputs are uploaded ciphertexts bound (in
// order) to the registers named by inputNames before any op runs; outputs
// names the registers whose values are returned, resolved after the DAG
// completes. Each returned ciphertext is pooled and the caller should
// PutCiphertext it once serialized; the session keeps owning its "$"
// register values. The inputs remain owned by the caller. A job with no ops
// is a pure upload; one with no outputs returns nothing and leaves its "$"
// results resident for later jobs.
//
// Validation failures — malformed register names, an op set with a
// dependency cycle, a read of a register the session does not hold
// (including one another session owns: registers are strictly
// session-scoped), a "%" name the job neither binds nor writes — are
// terminal CodeBadJob errors. Mid-DAG faults and cancellation skip every
// dependent op; results already committed to registers stay committed, so a
// retry can resume from them.
//
// A job canceled while still queued never executes (it is unlinked from the
// queue, or skipped at dispatch) and SubmitDAG returns immediately with
// CodeCanceled/CodeDeadline. Once the job is executing, SubmitDAG waits for
// it to finish — the inputs are in use — then discards the outputs and
// reports the context error.
func (s *Server) SubmitDAG(ctx context.Context, sessionName string, ops []Op, inputNames, outputs []string, inputs []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
	sess, err := s.session(sessionName)
	if err != nil {
		return nil, err
	}
	if sess.isQuarantined() {
		return nil, errf(CodeQuarantined, "session %q is quarantined after repeated faults; reopen it to clear", sessionName)
	}
	if len(inputs) != len(inputNames) {
		return nil, errf(CodeBadJob, "job uploads %d ciphertexts for %d input bindings", len(inputs), len(inputNames))
	}
	prog, err := compileRegisters(ops, inputNames, outputs, maxOpsPerJob)
	if err != nil {
		return nil, err
	}
	// Reject dangling register reads at submit time when the in-memory set
	// is complete; after a restart or spill the check defers to execution,
	// once the store has been consulted. Reads resolve against registers
	// committed before the job runs — a concurrently queued writer does not
	// count, so submitters chaining jobs should submit them sequentially.
	if len(prog.reads) > 0 && sess.registersKnown() {
		for _, name := range prog.reads {
			if sess.getRegister(name) == nil {
				return nil, errf(CodeBadJob, "job reads register %q, which does not exist in session %q", name, sessionName)
			}
		}
	}
	return s.submitJob(ctx, sess, prog, inputs)
}

// submitJob is SubmitDAG's enqueue-and-wait half: admission control,
// tracing, the queue handshake, and the cancellation race.
func (s *Server) submitJob(ctx context.Context, sess *session, prog *program, inputs []*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
	if t := s.cfg.DefaultJobTimeout; t > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
	}
	j := &job{
		ctx:      ctx,
		sess:     sess,
		prog:     prog,
		inputs:   inputs,
		enqueued: time.Now(),
		done:     make(chan jobResult, 1),
	}
	if s.tel != nil && s.tel.tracer != nil {
		// Every job gets a trace when a slow-job threshold is set; the spans
		// live in the tracer's fixed ring, so tracing a fast job costs atomic
		// stores, not retention. The root span covers submit-to-completion,
		// the queue span submit-to-dispatch.
		j.tr = s.tel.tracer.NewTrace()
		j.root = j.tr.Span(spanJob, 0)
		j.queue = j.tr.Span(spanQueue, j.root.ID())
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, errServerClosed
	}
	if len(s.pending) >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, errf(CodeQueueFull, "queue full (%d jobs)", s.cfg.MaxQueue)
	}
	s.pending = append(s.pending, j)
	sess.stats.enqueued()
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case r := <-j.done:
		return r.cts, r.err
	case <-ctx.Done():
		return s.cancelJob(j)
	}
}

// cancelJob handles a submitter's context expiring while its job is in the
// system. Queued jobs are unlinked (or, if already claimed into a batch,
// marked so the batch worker skips execution); a job already executing runs
// to completion — its inputs are in use — and the result is discarded.
func (s *Server) cancelJob(j *job) ([]*ckks.Ciphertext, error) {
	ctxErr := contextError(j.ctx.Err())
	// Fast path: still in the pending queue — unlink it so it never
	// dispatches (and frees its queue slot immediately).
	s.mu.Lock()
	for i, q := range s.pending {
		if q == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.mu.Unlock()
			s.finishJob(j, nil, ctxErr, false)
			r := <-j.done
			return r.cts, r.err
		}
	}
	s.mu.Unlock()
	// Already claimed by a batch: if the worker has not started executing,
	// flag it to skip; either way the worker delivers, so wait for it.
	j.cancelled.Store(true)
	r := <-j.done
	if r.err == nil {
		// The job finished under us; the caller is gone, so recycle the
		// results and surface the context error. Register commits the job
		// made are kept — they are session state, not response payload.
		for _, ct := range r.cts {
			s.ctx.PutCiphertext(ct)
		}
		return nil, ctxErr
	}
	return nil, r.err
}

// contextError maps a context error onto the serving taxonomy.
func contextError(err error) *Error {
	if err == context.DeadlineExceeded {
		return errf(CodeDeadline, "job deadline exceeded")
	}
	return errf(CodeCanceled, "job canceled by submitter")
}

// Drain stops admission (submits and session opens fail with a retryable
// CodeUnavailable error) and waits until the queue is empty and every
// in-flight batch has completed, or until ctx expires — then closes the
// server either way. A fully drained shutdown returns nil; an expired ctx
// returns its error with the abandoned jobs failed cleanly by Close.
//
// There is nothing to flush: the session store is write-through (sessions
// persist at open), so a drained daemon can be killed the moment Drain
// returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.Close()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			s.mu.Lock()
			empty := len(s.pending) == 0
			s.mu.Unlock()
			if empty {
				s.batches.Wait()
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	var err error
	select {
	case <-drained:
		// Fully drained: every session is idle, so spill resident registers
		// while the store is still reachable. The next process rehydrates
		// them lazily, making clean restarts lossless for register state.
		// (On an expired ctx jobs may still be running, so no spill — a
		// concurrent commit could be lost mid-write.)
		s.mu.Lock()
		sessions := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			sessions = append(sessions, sess)
		}
		s.mu.Unlock()
		for _, sess := range sessions {
			s.spillRegisters(sess)
		}
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops the dispatcher, failing queued jobs. Open sessions are
// discarded from memory (their durable state, if any, remains on disk).
// Close blocks until the dispatcher has drained.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.dispatcherDone
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.dispatcherDone
	s.ctx.Close()
}

// Uptime reports how long the server has been running.
func (s *Server) Uptime() time.Duration { return time.Since(s.started) }
