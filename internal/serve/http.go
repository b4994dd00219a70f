package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"bts/internal/ckks"
	"bts/internal/wire"
)

// The HTTP API. Ciphertexts and keys travel in the internal/wire envelope
// format; job programs and statistics travel as JSON.
//
//	GET  /healthz             liveness probe
//	GET  /v1/params           the server's CKKS parameter set (JSON), so a
//	                          client can mirror the context bit-exactly
//	POST /v1/sessions?name=N  open a session; body is an optional wire
//	                          SwitchingKey (relinearization key) followed by
//	                          an optional wire RotationKeySet
//	POST /v1/jobs             run a job; body is a length-prefixed JSON
//	                          JobRequest followed by the input ciphertext
//	                          envelopes; the response body is one ciphertext
//	                          envelope per requested output, in order
//	                          (X-BTS-Outputs carries the count)
//	GET  /v1/stats            per-session serving statistics (JSON)
//	GET  /v1/traces           retained slow-job trace dumps, newest first
//	                          (JSON; only with Config.SlowJob set)
//	GET  /metrics             Prometheus text exposition (unless
//	                          Config.DisableMetrics)
//	GET  /debug/vars          expvar JSON (unless Config.DisableMetrics)
//	GET  /debug/pprof/...     net/http/pprof (only with Config.Pprof)
const (
	// maxJobHeaderBytes bounds the length-prefixed JSON program block of a
	// job request.
	maxJobHeaderBytes = 1 << 20
	// maxJobInputs bounds the ciphertext count of one job request.
	maxJobInputs = 64
)

// ParamsResponse mirrors ckks.Parameters plus serving metadata; it is
// everything a client needs to build a bit-identical context.
type ParamsResponse struct {
	LogN               int      `json:"log_n"`
	Q                  []uint64 `json:"q"`
	P                  []uint64 `json:"p"`
	Dnum               int      `json:"dnum"`
	Scale              float64  `json:"scale"`
	H                  int      `json:"h"`
	Sigma              float64  `json:"sigma"`
	WireVersion        int      `json:"wire_version"`
	BootstrapRotations []int    `json:"bootstrap_rotations,omitempty"`
}

// JobRequest is the JSON program block preceding the input ciphertexts in a
// job request body. TimeoutMs, when positive, sets the job's deadline
// (overriding Config.DefaultJobTimeout); expiry fails the job with a typed
// "deadline" error without executing the remaining ops.
//
// Ops is a register-form program (see Op and SubmitDAG). Inputs names the
// registers bound, in order, to the uploaded ciphertext envelopes; Outputs
// the registers whose values come back in the response.
type JobRequest struct {
	Session   string   `json:"session"`
	Ops       []Op     `json:"ops"`
	TimeoutMs int64    `json:"timeout_ms,omitempty"`
	Inputs    []string `json:"inputs,omitempty"`
	Outputs   []string `json:"outputs,omitempty"`
}

// errorResponse is the JSON error body. Code and Retryable carry the typed
// serving error across the socket, so the client retries on taxonomy
// instead of parsing messages or guessing from HTTP statuses.
type errorResponse struct {
	Error     string  `json:"error"`
	Code      ErrCode `json:"code,omitempty"`
	Retryable bool    `json:"retryable,omitempty"`
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/params", s.handleParams)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/stats", s.handleStats)
	if s.tel != nil {
		if s.tel.reg != nil {
			mux.Handle("/metrics", s.tel.reg.Handler())
			mux.Handle("/debug/vars", expvar.Handler())
		}
		if s.tel.tracer != nil {
			mux.HandleFunc("/v1/traces", s.handleTraces)
		}
	}
	if s.cfg.Pprof {
		// Mount the handlers explicitly instead of relying on the package's
		// DefaultServeMux side effect, so profiling is exposed only when
		// asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	writeJSON(w, http.StatusOK, s.SlowJobDumps())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	if code := Code(err); code != "" {
		resp.Code = code
		resp.Retryable = IsRetryable(err)
	} else if status == http.StatusServiceUnavailable {
		resp.Code, resp.Retryable = CodeUnavailable, true
	} else {
		resp.Code = CodeInvalid
	}
	writeJSON(w, status, resp)
}

// writeServeError renders a typed serving error with its canonical HTTP
// status (see httpStatus).
func writeServeError(w http.ResponseWriter, err error) {
	writeError(w, httpStatus(err), err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	p := s.ctx.Params
	writeJSON(w, http.StatusOK, ParamsResponse{
		LogN:               p.LogN,
		Q:                  p.Q,
		P:                  p.P,
		Dnum:               p.Dnum,
		Scale:              p.Scale,
		H:                  p.H,
		Sigma:              p.Sigma,
		WireVersion:        wire.Version,
		BootstrapRotations: s.bootRotations,
	})
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: missing ?name="))
		return
	}
	// The body is a stream of key envelopes in any order, each kind at most
	// once; an empty body opens a keyless (Add/Sub-only) session.
	var (
		rlk  *ckks.SwitchingKey
		rtks *ckks.RotationKeySet
	)
	body := bufio.NewReader(r.Body)
	for {
		t, err := wire.PeekType(body)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		switch t {
		case wire.TypeSwitchingKey:
			if rlk != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: duplicate relinearization key"))
				return
			}
			if rlk, err = s.codec.ReadSwitchingKey(body); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		case wire.TypeRotationKeySet:
			if rtks != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: duplicate rotation key set"))
				return
			}
			if rtks, err = s.codec.ReadRotationKeySet(body); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		default:
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unexpected %s envelope in session upload", t))
			return
		}
	}
	if err := s.OpenSession(name, rlk, rtks); err != nil {
		writeServeError(w, err)
		return
	}
	sess, _ := s.session(name)
	writeJSON(w, http.StatusOK, map[string]any{
		"session":        name,
		"relinearizable": rlk != nil,
		"rotations":      rtks != nil,
		"bootstrappable": sess != nil && sess.bt != nil,
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.Body, lenBuf[:]); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading job header length: %w", err))
		return
	}
	headerLen := binary.LittleEndian.Uint32(lenBuf[:])
	if headerLen == 0 || headerLen > maxJobHeaderBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: job header of %d bytes outside (0,%d]", headerLen, maxJobHeaderBytes))
		return
	}
	headerBytes := make([]byte, headerLen)
	if _, err := io.ReadFull(r.Body, headerBytes); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading job header: %w", err))
		return
	}
	var req JobRequest
	if err := json.Unmarshal(headerBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding job header: %w", err))
		return
	}

	// Decode the input ciphertexts (pooled) until EOF.
	var inputs []*ckks.Ciphertext
	release := func() {
		for _, ct := range inputs {
			s.ctx.PutCiphertext(ct)
		}
	}
	for {
		ct, err := s.codec.ReadCiphertext(r.Body)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			release()
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(inputs) >= maxJobInputs {
			release()
			s.ctx.PutCiphertext(ct)
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: more than %d input ciphertexts", maxJobInputs))
			return
		}
		inputs = append(inputs, ct)
	}

	// The request context rides into the scheduler: a client disconnect
	// cancels the job (never executed if still queued), and a request-scoped
	// timeout becomes the job's deadline.
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	outs, err := s.SubmitDAG(ctx, req.Session, req.Ops, req.Inputs, req.Outputs, inputs)
	release()
	if err != nil {
		writeServeError(w, err)
		return
	}
	defer func() {
		for _, ct := range outs {
			s.ctx.PutCiphertext(ct)
		}
	}()
	w.Header().Set("Content-Type", "application/x-bts-wire")
	w.Header().Set("X-BTS-Latency-Us", fmt.Sprintf("%d", time.Since(start).Microseconds()))
	w.Header().Set("X-BTS-Outputs", fmt.Sprintf("%d", len(outs)))
	for _, ct := range outs {
		if err := s.codec.WriteCiphertext(w, ct); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
