package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	"bts/internal/ckks"
)

var errServerClosed = &Error{Code: CodeUnavailable, Retryable: true, Msg: "server closed"}

// session is one tenant: a name, the evaluator built from the tenant's
// uploaded evaluation keys, an optional bootstrapper, a running noise floor
// (when telemetry is on), and statistics.
//
// With the durable store configured, the evaluator and bootstrapper are
// rebuildable state: eviction under key-memory pressure drops them (the
// decoded keys are what costs gigabytes; the wire blobs stay on disk) and
// the scheduler rehydrates them on the session's next job. A session
// reloaded after a daemon restart starts in the evicted state and hydrates
// lazily the same way. Everything else — statistics, the noise floor, the
// quarantine state — is cheap and lives for the session's whole life.
type session struct {
	name    string
	created time.Time
	noise   *ckks.NoiseFloor // nil when telemetry is disabled
	stats   sessionStats

	// hydMu serializes rehydration (store read + key decode, and the
	// register reload of hydrateRegisters) so concurrent jobs of an
	// evicted session load its state exactly once. Never held together
	// with mu.
	hydMu sync.Mutex

	// regMu guards the ciphertext registers — the DAG job model's
	// session-resident values (see registers.go) — and the lazily built
	// encoding cache. Leaf lock: nothing else is acquired under it.
	regMu      sync.Mutex
	regs       map[string]*register
	regBytes   int64
	regsLoaded bool // the in-memory set is complete (nothing spilled-only)
	enc        *encodingCache

	// mu guards the rebuildable runtime state and the fault ledger. It is
	// held only for quick field access, never across I/O or key decoding.
	mu             sync.Mutex
	eval           *ckks.Evaluator // nil while evicted or not yet hydrated
	bt             *ckks.Bootstrapper
	keyBytes       int64           // decoded key-set footprint (0 = keyless session)
	onDisk         bool            // a durable manifest backs this session
	bootstrappable bool            // sticky across eviction
	opsBase        ckks.OpCounters // op mix accumulated before the last eviction
	quarantined    bool
	faults         int // consecutive panicking jobs
}

// runtime returns the session's evaluator and bootstrapper (nil, nil while
// evicted).
func (sess *session) runtime() (*ckks.Evaluator, *ckks.Bootstrapper) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.eval, sess.bt
}

// counters returns the session's lifetime op mix: the tally folded in at
// evictions plus the current evaluator's live counters.
func (sess *session) counters() ckks.OpCounters {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	c := sess.opsBase
	if sess.eval != nil {
		c = c.Add(sess.eval.Counters())
	}
	return c
}

// keyFootprint reports the decoded key-set byte footprint.
func (sess *session) keyFootprint() int64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.keyBytes
}

// idle reports whether no job of the session is queued or in flight — the
// eviction-safety predicate.
func (sess *session) idle() bool {
	sess.stats.mu.Lock()
	defer sess.stats.mu.Unlock()
	return sess.stats.queueDepth == 0
}

// evict drops the decoded keys (evaluator + bootstrapper), folding the
// evaluator's op tally into the base so counters stay monotonic. Jobs that
// already captured the evaluator pointer keep using it safely — the key
// material is immutable — but new jobs will rehydrate from disk.
func (sess *session) evict() {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.eval == nil {
		return
	}
	sess.opsBase = sess.opsBase.Add(sess.eval.Counters())
	sess.eval = nil
	sess.bt = nil
}

// quarantineAfter is how many consecutive panicking jobs quarantine a
// session: further submits fail with CodeQuarantined until the tenant
// reopens it.
const quarantineAfter = 3

// noteFault records a panicking job; after quarantineAfter consecutive
// faults the session is quarantined. Reports whether the session is now
// quarantined.
func (sess *session) noteFault() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.faults++
	if sess.faults >= quarantineAfter {
		sess.quarantined = true
	}
	return sess.quarantined
}

// noteSuccess resets the consecutive-fault counter.
func (sess *session) noteSuccess() {
	sess.mu.Lock()
	sess.faults = 0
	sess.mu.Unlock()
}

// isQuarantined reports the quarantine flag.
func (sess *session) isQuarantined() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.quarantined
}

// latSamples is the size of the per-session latency reservoir: a ring buffer
// of the most recent latSamples job latencies. Until the buffer wraps
// (latN < latSamples) percentiles cover every job ever completed; after
// wrapping they cover a sliding window of the last latSamples jobs, so a
// long-lived session reports recent behavior, not its lifetime average. The
// snapshot exposes both the window capacity (lat_window) and how many
// samples currently back the percentiles (lat_samples).
const latSamples = 4096

// sessionStats tracks per-tenant serving statistics. queueDepth counts jobs
// submitted but not yet completed (queued + in flight).
type sessionStats struct {
	mu         sync.Mutex
	jobs       uint64
	ops        uint64
	errors     uint64
	queueDepth int
	lat        [latSamples]float64 // milliseconds, ring buffer
	latN       uint64              // total samples ever recorded
}

func (st *sessionStats) enqueued() {
	st.mu.Lock()
	st.queueDepth++
	st.mu.Unlock()
}

func (st *sessionStats) completed(latency time.Duration, ops int, err error) {
	st.mu.Lock()
	st.queueDepth--
	st.jobs++
	if err != nil {
		st.errors++
	} else {
		st.ops += uint64(ops)
	}
	st.lat[st.latN%latSamples] = latency.Seconds() * 1e3
	st.latN++
	st.mu.Unlock()
}

// SessionStats is the JSON snapshot of one session's counters. Latency
// percentiles cover the most recent jobs — LatSamples of them, within a
// sliding window of capacity LatWindow — and are measured
// submit-to-completion, so they include queueing delay. OpMix is the
// evaluator's primitive-op tally (the same counters /metrics exports as
// bts_session_ops_total); NoiseFloorBits is the minimum noise margin
// observed on the session, omitted until a job has run (or when telemetry
// is disabled). Resident reports whether the session's decoded keys are in
// memory right now (false after eviction or before a restarted daemon's
// first use); Durable whether the session survives a restart.
type SessionStats struct {
	Session        string   `json:"session"`
	Jobs           uint64   `json:"jobs"`
	Ops            uint64   `json:"ops"`
	Errors         uint64   `json:"errors"`
	QueueDepth     int      `json:"queue_depth"`
	Bootstrappable bool     `json:"bootstrappable"`
	Resident       bool     `json:"resident"`
	Durable        bool     `json:"durable"`
	Quarantined    bool     `json:"quarantined"`
	KeyBytes       int64    `json:"key_bytes"`
	Registers      int      `json:"registers"`
	RegisterBytes  int64    `json:"register_bytes"`
	LatWindow      int      `json:"lat_window"`
	LatSamples     int      `json:"lat_samples"`
	P50Ms          float64  `json:"p50_ms"`
	P90Ms          float64  `json:"p90_ms"`
	P99Ms          float64  `json:"p99_ms"`
	MaxMs          float64  `json:"max_ms"`
	OpMix          OpMix    `json:"op_mix"`
	NoiseFloorBits *float64 `json:"noise_floor_bits,omitempty"`
}

// OpMix is the session evaluator's measured primitive-op mix
// (ckks.OpCounters) plus the derived evk-consuming total.
type OpMix struct {
	Mult           int64 `json:"mult"`
	FullRot        int64 `json:"full_rot"`
	HoistedRot     int64 `json:"hoisted_rot"`
	Decompose      int64 `json:"decompose"`
	ModDown        int64 `json:"mod_down"`
	Rescale        int64 `json:"rescale"`
	PMult          int64 `json:"pmult"`
	ModRaise       int64 `json:"mod_raise"`
	KeySwitchTotal int64 `json:"key_switch_total"`
}

func opMixOf(c ckks.OpCounters) OpMix {
	return OpMix{
		Mult:           c.Mult,
		FullRot:        c.FullRot,
		HoistedRot:     c.HoistedRot,
		Decompose:      c.Decompose,
		ModDown:        c.ModDown,
		Rescale:        c.Rescale,
		PMult:          c.PMult,
		ModRaise:       c.ModRaise,
		KeySwitchTotal: c.KeySwitchTotal(),
	}
}

// Stats is the JSON snapshot of the whole server.
type Stats struct {
	UptimeSec float64        `json:"uptime_sec"`
	Workers   int            `json:"workers"`
	Draining  bool           `json:"draining"`
	Sessions  []SessionStats `json:"sessions"`
}

// snapshot captures the session's counters and computes percentiles.
func (sess *session) snapshot() SessionStats {
	st := &sess.stats
	st.mu.Lock()
	out := SessionStats{
		Session:    sess.name,
		Jobs:       st.jobs,
		Ops:        st.ops,
		Errors:     st.errors,
		QueueDepth: st.queueDepth,
		LatWindow:  latSamples,
	}
	// Clamp on the uint64 side: converting latN to int first would go
	// negative once the counter passes the int range (and on 32-bit hosts a
	// wrapped buffer already overflows int32), slicing st.lat out of bounds.
	n := latSamples
	if st.latN < latSamples {
		n = int(st.latN)
	}
	out.LatSamples = n
	samples := append([]float64(nil), st.lat[:n]...)
	st.mu.Unlock()

	sess.mu.Lock()
	out.Bootstrappable = sess.bootstrappable
	out.Resident = sess.eval != nil
	out.Durable = sess.onDisk
	out.Quarantined = sess.quarantined
	out.KeyBytes = sess.keyBytes
	mix := sess.opsBase
	if sess.eval != nil {
		mix = mix.Add(sess.eval.Counters())
	}
	sess.mu.Unlock()

	out.Registers, out.RegisterBytes = sess.registerStats()

	out.OpMix = opMixOf(mix)
	if sess.noise != nil {
		if bits := sess.noise.MinBits(); !math.IsInf(bits, 1) {
			out.NoiseFloorBits = &bits
		}
	}

	if len(samples) > 0 {
		sort.Float64s(samples)
		out.P50Ms = Percentile(samples, 50)
		out.P90Ms = Percentile(samples, 90)
		out.P99Ms = Percentile(samples, 99)
		out.MaxMs = samples[len(samples)-1]
	}
	return out
}

// Percentile reads the p-th percentile (nearest-rank: the ⌈p·n/100⌉-th
// smallest of n) from sorted samples — the single definition shared by
// server stats and the load generator, so their reported percentiles stay
// comparable. Multiplying before dividing keeps whole ranks exact.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted))/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Stats snapshots every session, sorted by name for stable output.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].name < sessions[j].name })
	out := Stats{
		UptimeSec: s.Uptime().Seconds(),
		Workers:   s.ctx.Workers(),
		Draining:  draining,
	}
	for _, sess := range sessions {
		out.Sessions = append(out.Sessions, sess.snapshot())
	}
	return out
}
