// Package bts is a from-scratch Go reproduction of "BTS: An Accelerator for
// Bootstrappable Fully Homomorphic Encryption" (Kim et al., ISCA 2022).
//
// The repository contains two complementary halves:
//
//   - A complete Full-RNS CKKS library (internal/ckks on top of internal/ring
//     and internal/mod) implementing every primitive the paper accelerates —
//     encoding, encryption, HAdd/HMult/HRot/HRescale, generalized dnum
//     key-switching, homomorphic linear transforms, Chebyshev evaluation,
//     and full bootstrapping — functionally verified at reduced ring degrees.
//
//   - A model of the BTS accelerator itself: the parameter analysis of
//     Section 3 (internal/params), the hardware catalog of Section 5 and
//     Table 3 (internal/arch), a cycle-level simulator following the
//     Section 6.2 methodology (internal/sim), workload traces for the
//     paper's applications (internal/workload), published baselines
//     (internal/baseline), and the experiment harness regenerating every
//     table and figure (internal/eval).
//
// # Execution engine
//
// The CKKS library executes on a two-dimensional execution engine
// (ring.Engine): every NTT, element-wise op, automorphism and base
// conversion fans out across a worker pool over RNS limbs and — all but the
// NTT — when the active limbs alone cannot fill the pool (low-level
// ciphertexts, bootstrapping's tail), over contiguous coefficient blocks
// within each residue row — the software analogue of the paper's PE grid
// distributing both limbs and coefficients (Section 4.1). Each NTT row runs
// the fused radix-4 kernel as one task. Where one op's rows are too few to
// fill the pool, independent ops share it: the bootstrap runs EvalMod's two
// sine evaluations (real and imaginary half) as two tasks of the engine,
// side by side on two or more workers and in order on a serial engine, with
// the same output words either way. Every context owns its pool, sized to
// runtime.GOMAXPROCS when the context is built; Context.SetWorkers picks an
// explicit worker count, with 0 selecting the serial fallback. Results are
// bit-identical for every worker count and block configuration, so the
// knobs are purely throughput dials: worker counts up to the number of
// physical cores scale near-linearly at any level, no longer saturating at
// the limb count (level+1). Hot operations draw all
// temporary polynomials from per-ring sync.Pool scratch allocators
// (ring.GetPolyNoZero/PutPoly), so steady-state evaluation and bootstrapping
// do not allocate. A discarded context's workers stop when the garbage
// collector frees it; nothing needs closing.
//
// Rotation-heavy workloads additionally run on hoisted key-switching: a
// ciphertext is decomposed once (ckks.Evaluator.DecomposeNTT) and every
// rotation of it reuses the decomposition (RotateHoisted, bit-identical to
// sequential Rotate), while BSGS linear transforms — the bulk of
// bootstrapping's CoeffToSlot/SlotToCoeff — keep each baby step's
// key-switch in the extended QP basis, fold the diagonals in there with the
// key-switch's reduced MAC, and defer ModDown to once per giant step. Every
// key-switch runs one pipeline — decompose, then one reduced MAC per
// rotation, the automorphism's index table fused into its reads — so
// MulRelin, Rotate and Conjugate are that pipeline with a decomposition of
// their own.
// Bootstrapping evaluates those transforms *factored*: CoeffToSlot and
// SlotToCoeff are chains of sparse radix stages (ckks.TransformChain over
// the encoder's butterfly-group factorization, dft.go) instead of dense
// slots×slots matrices, spending ~1.8× fewer key-switch ops and ~2.2×
// fewer rotation keys for one extra level per transform. The hoisted
// transform and the factored chains are the only implementations; the eager
// BSGS evaluator and the dense transforms survive as test oracles.
//
// A product that is going to be rescaled anyway should be one call:
// ckks.Evaluator.MulRelinRescale(a, b) returns what Rescale(MulRelin(a, b))
// returns — same level, same tracked scale — but divides once, by P·q_ℓ,
// where the pair divides by P and then again by q_ℓ. The key-switch spends
// its forward NTTs only on the rows base conversion wrote (its own
// decomposition group never leaves the NTT domain), so with that a
// dnum = 1 product costs 3·nq + 3·np limb transforms instead of
// 6·nq + 3·np (nq active primes, np special primes). np itself depends on
// the level: the keys hold every special prime, sized for the top level's
// digit, but a key-switch at level ℓ divides by the shortest prefix of them
// that still clears its digit by a noise margin (ckks.Parameters.
// SpecialPrimes, 2..26 of Table 2's 28), with the digit scaled by the
// leftover primes' inverse so the full-P keys still apply. A product's BConv
// work and row transforms shrink with it, by 28 % and 16 % at level 21.
// A switching key stores only its b halves and a 32-byte seed: every a_j is
// uniform, so the key-switch kernel regenerates each of its rows with
// AES-128-CTR inside the task that multiplies it (ring.MulKeyPair), exactly
// uniform by rejection sampling and bit-identical at every engine shape.
// That halves key memory and key uploads — Table 2's key set stores
// ≈3.06 GiB instead of 6.12 — for PRNG words the accelerator model, which
// streams both halves, does not charge.
// The fused form is not bit-identical to the pair: the approximate base
// conversion's overflow, up to (np+1)/2 units per coefficient, lands after
// the division by q_ℓ instead of before it, so the result carries a few
// units more coefficient noise (measured at Δ = 2^40: slot error 2^-31.4 →
// 2^-30.3 at dnum = 1, unchanged at dnum = 6). That is invisible wherever
// the scale leaves a dozen bits of headroom — the Chebyshev evaluator, hence
// EvalMod, uses it for every product — and MulRelin and Rescale stay as they
// are for callers that need the product unrescaled or want the last bit.
//
// # Montgomery ring core
//
// The RNS residue arithmetic underneath all of this runs end-to-end in
// Montgomery representation: every polynomial the library holds — ciphertext
// components, plaintexts, evaluation keys, key-switching decomposition
// slices — stores residues as x·R mod q (R = 2^64), so every element-wise
// product of two data words, multiply-accumulates included, reduces with one
// fused 3-multiply REDC instead of a wider Barrett pass, and multiplication by
// precomputed plain constants (twiddle factors, divisor inverses, P mod q)
// is form-preserving and free of conversions. Residues enter M-form at the
// encode/sampling boundary and leave it only at decode time and in the wire
// format, which transports true canonical residues (internal/wire). The
// NTT/iNTT inner kernels are fused radix-4 (merged two-layer) Harvey
// butterflies: one table per direction holds each plain twiddle beside its
// Shoup companion, every twiddle product is one wide multiply on the
// critical path, four coefficients share a butterfly, intermediates ride a
// [0, 4q) lazy window, and the last pass leaves canonical residues (the
// inverse's with N^-1 folded in) — halving the passes over each row
// relative to radix-2. On amd64 CPUs with AVX-512F/DQ every pass runs eight
// coefficients per instruction (the software image of the paper's NTTU
// lanes), word for word the Go passes, which remain the fallback. On the
// same CPUs the element-wise rows run eight coefficients per instruction
// too, word for word their Go rows: the key-switch's multiply-accumulate
// (the MMAU's work, with the automorphism as a lane gather), the division's
// subtract-scale, the Shoup scalar MACs and the transform's diagonal folds.
// Those folds, and the relinearization's tensor, run as one ring.Fold: a
// list of multiply-accumulates walked tile by tile, so the polynomials the
// list shares — a transform's baby accumulators, read by every giant step —
// come from cache instead of memory (BTS's point that data movement, not
// arithmetic, bounds bootstrapping). A radix-2 Montgomery row kernel and the
// pre-Montgomery Barrett kernels remain in internal/ring's tests as
// bit-identity oracles. Every basis change runs the key-switch's own
// iNTT → BConv → NTT dataflow: HRescale is its division with no special
// primes, and ModRaise is a BConv from the single prime q0. That BConv is
// the software image of the paper's BConvU and MMAU: on amd64 CPUs with
// AVX-512 IFMA its digits, dot products and reductions run eight
// coefficients per instruction in 52-bit multiply-accumulate lanes
// (internal/ring's bconvDigits and bconvLanes, chosen by CPUID), word for
// word equal to the portable Go kernel that runs everywhere else. With the
// seeded keys' VAES keystream that makes four assembly tiers, all chosen by
// one CPUID probe with no knob; a test-only switch in internal/ring runs
// any test on the Go kernels alone.
// The benchmark in bench/ (go run ./bench) reports the kernels per layer —
// ns/butterfly, GB/s, REDC — beside T_mult,a/slot, and
// TestTable2PaperInstance (build tag paperinstance) bootstraps the N=2^17
// Table 2 paper instance (ckks.Table2Literal) through the S=3 factored
// pipeline.
//
// # Serving runtime
//
// The repository also contains a multi-tenant serving stack over the CKKS
// library, mirroring the paper's framing of bootstrappable FHE as a service
// that amortizes cost across many client ciphertexts in flight:
//
//   - internal/wire is the serialization layer: a versioned, length-prefixed
//     binary codec (magic "BTSW", version 2) for the three objects the
//     daemon exchanges: ciphertexts, switching keys (b halves plus seed)
//     and rotation-key sets. Every
//     decode is validated against the owning Context (ring degree, level
//     bounds, residue canonicity), so malformed bytes error instead of
//     corrupting memory, and round trips are bit-exact.
//
//   - internal/serve is the job scheduler: clients open named sessions by
//     uploading evaluation keys (never the secret key) and submit jobs —
//     programs of Add/Sub/Mult/Rotate/Conjugate/Rescale/Bootstrap ops. On
//     the wire every job is a DAG over named ciphertext registers: "$x"
//     registers persist server-side across requests within a session, so a
//     multi-request pipeline uploads and downloads ciphertexts only at its
//     boundary, while "%x" registers live only inside their job. The
//     client's flat slot-list form (Client.Do) is sugar lowered onto
//     job-local registers before upload. Every job compiles to a
//     dependency-staged program — independent ops run concurrently within a
//     stage, and same-register rotation fans are auto-hoisted through one
//     shared key-switch decomposition, bit-identically to the naive path.
//     Ops the evaluator cannot run (mismatched scales, a missing key,
//     rescale at level 0) fail as terminal bad_job errors. The dispatcher
//     starts queued jobs in FIFO order, each on its own goroutine, with up
//     to Parallel executing at once, and draws every result from the
//     context's pooled ciphertext allocator
//     (Context.GetCiphertext/PutCiphertext). Returned results and job-local
//     values recycle; a replaced "$" register value goes to the garbage
//     collector instead, because a job in flight may still read it, so
//     serving does allocate ciphertext rows. Per-session statistics (jobs,
//     ops, registers, queue depth, p50/p90/p99 latency) are exported as
//     JSON.
//
//   - cmd/btsserve wraps the scheduler in an HTTP daemon speaking the wire
//     format, and `btsbench -experiment serve -addr HOST:PORT -clients K`
//     is the matching load generator, reporting ops/sec and latency
//     percentiles as JSON; `btsbench -experiment dag -addr HOST:PORT`
//     submits one 3-stage rotation-fan pipeline as a single DAG job and
//     checks it against the plaintext model. The register model's wire and
//     key-switch savings against per-op round trips are gated by
//     TestDAGFlatEquivalence in internal/serve.
//
// # Observability
//
// The serving stack is instrumented end to end by internal/telemetry, a
// dependency-free tracing and metrics layer whose hooks are nil-guarded
// pointers: with telemetry detached every hook is a single nil check; the
// benchmark reports what attaching them costs as telemetry.overhead_ratio.
//
// Metrics. btsserve exposes Prometheus text-format 0.0.4 on GET /metrics
// (and expvar JSON on /debug/vars) unless started with -metrics=false.
// The exported families, by layer:
//
//   - ring.Engine / pools: bts_engine_runs_total, bts_engine_tasks_total,
//     bts_engine_stolen_tasks_total, bts_engine_block_runs_total and the
//     other dispatch-shape gauges; bts_pool_gets_total /
//     bts_pool_misses_total {ring="q"|"p", kind="poly"} and {ring="q",
//     kind="row"}: kind="poly" counts scratch-polynomial borrows, kind="row"
//     the residue rows pooled ciphertexts grow on the q ring (every row a
//     miss: an allocation).
//   - wire codec: bts_wire_bytes_total / bts_wire_envelopes_total
//     {dir="in"|"out"}.
//   - scheduler: bts_jobs_total{result="ok"|"error"|"canceled"},
//     bts_job_latency_seconds, bts_queue_depth, bts_sessions_open,
//     bts_slow_jobs_total, bts_hoist_shared_decompositions_total.
//   - per-op: bts_op_latency_seconds{op, level} histograms keyed op kind ×
//     ciphertext level.
//   - per-session: bts_session_jobs_total, bts_session_errors_total,
//     bts_session_queue_depth, bts_session_ops_total{session, kind} (the
//     evaluator op mix: mult, full_rot, hoisted_rot, decompose, mod_down,
//     rescale, pmult, mod_raise, key_switch), and bts_noise_floor_bits —
//     the FHE-domain health signal, the running minimum over the session
//     of noise margin = log2(q_0..q_level) − log2(scale): bits of modulus
//     headroom above the working scale. A floor trending toward zero
//     means results are about to drown in noise; a bootstrap restores it.
//
// Tracing. Started with -slow-job <d>, btsserve traces every job through
// a lock-free span buffer (zero allocation on the hot path) and retains
// the rendered span tree of any job slower than d on GET /v1/traces. The
// span hierarchy is serve.job → serve.queue + op.<kind> →
// ckks.<primitive> (keyswitch, mulrelin, rescale, decompose, ...) and,
// under op.bootstrap, the four pipeline phases bootstrap.modraise /
// coeff_to_slot / eval_mod / slot_to_coeff. Op spans carry the result
// level and noise margin as attributes. The benchmark's boot workload
// reports the same phase breakdown (ckks.{modraise,cts,evalmod,stc}_share),
// and /v1/stats reports each session's op mix, latency-reservoir window and
// noise floor alongside the existing percentiles. -pprof additionally
// mounts net/http/pprof under /debug/pprof/.
//
// # Fault tolerance
//
// The serving runtime is built to survive crashes, restarts and partial
// failures without ever returning a wrong ciphertext:
//
//   - Durable key store. With serve.Config.StoreDir set, every session's
//     uploaded evaluation keys are persisted write-through at open — wire
//     codec blobs plus a JSON manifest carrying CRC-32C checksums, sizes
//     and the parameter fingerprint, committed crash-safely (blobs fsynced
//     into a temp dir, manifest written last, atomic rename). A restarted
//     daemon lists manifests only; key material rehydrates lazily on each
//     session's first job. Any corruption — bit flip, truncation, foreign
//     parameters — fails the load with a typed "store" error, never a bad
//     key.
//
//   - Key-memory governance. SessionQuotaBytes caps a tenant's decoded
//     key bytes at upload (HTTP 413 past it); KeyCacheBytes bounds total
//     resident decoded keys with an LRU over idle sessions, evicting cold
//     key sets to disk and reloading on demand. bts_key_resident_bytes,
//     bts_key_evictions_total and bts_key_reloads_total track the cache.
//     Ciphertext registers ride the same machinery: an evicted or drained
//     session spills its registers to the store (CRC-checked, atomic
//     rename) and the next DAG job rehydrates them transparently;
//     bts_register_bytes, bts_register_spills_total and
//     bts_register_reloads_total track that lifecycle, and register bytes
//     count against the same tenant quota as keys.
//
//   - Request lifecycle. A context.Context follows each job from HTTP
//     handler through queue to job execution: per-job deadlines
//     (Config.DefaultJobTimeout or the request's timeout_ms), cancelled
//     jobs that are still queued never execute, and a cancelled job never
//     stalls other tenants' jobs. A panic inside an op fails only
//     the offending job (bts_job_panics_total{op}, span tree retained on
//     /v1/traces when tracing); a session whose jobs panic repeatedly is
//     quarantined until its keys are re-uploaded. Errors carry a stable
//     code and a retryable bit end to end — serve.Error over HTTP — and
//     the client retries retryable failures with exponential backoff and
//     full jitter instead of a blanket request timeout. Jobs are pure
//     functions of inputs and keys, so a retried job is bit-identical.
//
//   - Fault injection. internal/faultinject provides named failpoints
//     (error, panic, delay — armed via BTS_FAILPOINTS or tests, free nil
//     checks when disarmed) at the store, scheduler-dispatch and op
//     boundaries; the chaos suite kills and restarts a daemon mid-workload
//     under the race detector and asserts every job either completes
//     bit-identically or fails with a typed retryable error.
//
// btsserve drains on SIGTERM/SIGINT: it stops accepting connections,
// finishes queued and in-flight jobs (bounded by -drain-timeout) and exits
// 0; the write-through store means shutdown flushes nothing.
//
// This package re-exports the stable entry points used by the examples and
// command-line tools; the root-level benchmarks (bench_test.go) regenerate
// the paper's evaluation via the same functions.
package bts

import (
	"bts/internal/arch"
	"bts/internal/ckks"
	"bts/internal/params"
	"bts/internal/serve"
	"bts/internal/sim"
	"bts/internal/wire"
	"bts/internal/workload"
)

// CKKS scheme construction (the workload the accelerator runs).
type (
	// SchemeParams selects a concrete CKKS instantiation by prime bit sizes.
	SchemeParams = ckks.ParametersLiteral
	// Context owns the rings and conversion tables of one instantiation.
	Context = ckks.Context
	// Ciphertext is a CKKS ciphertext (pair of RNS polynomials, NTT domain).
	Ciphertext = ckks.Ciphertext
)

// NewScheme generates NTT-friendly primes for lit and opens a context. The
// context executes limb-parallel on its own engine of GOMAXPROCS workers.
func NewScheme(lit SchemeParams) (*ckks.Context, error) {
	p, err := ckks.NewParameters(lit)
	if err != nil {
		return nil, err
	}
	return ckks.NewContext(p)
}

// Serving runtime (wire serialization + multi-tenant job scheduler).
type (
	// WireCodec marshals CKKS objects to the versioned wire format, validated
	// against one Context.
	WireCodec = wire.Codec
	// ServeConfig parameterizes a serving runtime.
	ServeConfig = serve.Config
	// Server is the multi-tenant job scheduler behind cmd/btsserve.
	Server = serve.Server
	// ServeOp is one step of a serving job program.
	ServeOp = serve.Op
	// ServeClient is the HTTP client for a btsserve daemon.
	ServeClient = serve.Client
	// ServeStats is the JSON statistics snapshot of a serving runtime.
	ServeStats = serve.Stats
)

// NewWireCodec returns a codec bound to ctx. Decoded ciphertexts come from
// the context's ciphertext pool; return them with PutCiphertext to reuse
// their rows.
func NewWireCodec(ctx *Context) *WireCodec { return wire.NewCodec(ctx) }

// NewServer builds a serving runtime and starts its dispatcher.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServeClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8631"); ctx must mirror the daemon's parameters, which
// serve.FetchParams retrieves.
func NewServeClient(base string, ctx *Context) *ServeClient { return serve.NewClient(base, ctx) }

// Accelerator modeling (the paper's contribution).
type (
	// HWConfig is a BTS hardware configuration (PE grid, HBM, scratchpad).
	HWConfig = arch.Config
	// Instance is a symbolic CKKS instance (N, L, dnum) for the simulator.
	Instance = params.Instance
	// Simulator executes HE-op traces on a hardware configuration.
	Simulator = sim.Simulator
	// Trace is a sequence of primitive HE ops.
	Trace = workload.Trace
)

// DefaultHW returns the paper's BTS configuration (2,048 PEs, 1 TB/s HBM,
// 512 MB scratchpad).
func DefaultHW() HWConfig { return arch.Default() }

// PaperInstances returns Table 4's INS-1/2/3.
func PaperInstances() []Instance { return params.PaperInstances() }

// NewSimulator builds a simulator for one hardware config and instance.
func NewSimulator(hw HWConfig, inst Instance) *Simulator { return sim.New(hw, inst) }

// BootstrapTrace builds the paper-scale bootstrapping op trace.
func BootstrapTrace(inst Instance) Trace {
	return workload.BootstrapTrace(inst, workload.PaperBootstrapShape())
}
