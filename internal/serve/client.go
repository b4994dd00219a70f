package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"bts/internal/ckks"
	"bts/internal/wire"
)

// ClientConfig tunes the client's per-request deadlines and retry policy.
// The zero value of every field selects the default noted on it.
type ClientConfig struct {
	// RequestTimeout bounds one HTTP attempt of a non-job request (session
	// open, stats, health). Default 1 minute; negative disables.
	RequestTimeout time.Duration
	// JobTimeout bounds one attempt of a job submission, end to end — it is
	// also sent to the server as the job's deadline, so a timed-out attempt
	// releases its server-side queue slot instead of computing into the
	// void. Default 5 minutes (FHE jobs are slow); negative disables.
	JobTimeout time.Duration
	// MaxRetries is how many times a retryable failure is reattempted after
	// the first try (so MaxRetries=3 means up to 4 attempts). Retried are
	// transport errors and typed serving errors whose Retryable flag is set
	// (unavailable, queue_full, store, internal); invalid programs, quota
	// overruns and quarantined sessions fail immediately. Default 3;
	// negative disables retries.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: sleep ~ uniform(0, min(RetryMax, RetryBase<<attempt)) —
	// "full jitter", so a thundering herd of retries decorrelates.
	// Defaults 50ms and 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
}

func (cc *ClientConfig) applyDefaults() {
	if cc.RequestTimeout == 0 {
		cc.RequestTimeout = time.Minute
	}
	if cc.JobTimeout == 0 {
		cc.JobTimeout = 5 * time.Minute
	}
	if cc.MaxRetries == 0 {
		cc.MaxRetries = 3
	} else if cc.MaxRetries < 0 {
		cc.MaxRetries = 0
	}
	if cc.RetryBase <= 0 {
		cc.RetryBase = 50 * time.Millisecond
	}
	if cc.RetryMax <= 0 {
		cc.RetryMax = 2 * time.Second
	}
}

// Client talks to a btsserve daemon. It owns a context mirroring the
// server's parameters (so its wire objects validate on the far side) but
// never sends secret material: only evaluation keys and ciphertexts leave
// the process.
//
// Every request carries a per-attempt context deadline (no blanket
// http.Client.Timeout), and failures the server marks retryable — plus
// transport errors, which mean the response never arrived — are retried
// with exponential backoff and full jitter. Jobs are pure functions of
// their inputs, so a retried job is safe: it either never ran or its result
// was discarded.
type Client struct {
	base  string
	cfg   ClientConfig
	hc    *http.Client
	ctx   *ckks.Context
	codec *wire.Codec

	// wireOut counts POST request payload bytes (per attempt — a retried
	// upload is paid twice on the wire and counted twice); wireIn counts job
	// result envelope bytes. Together they measure the ciphertext traffic a
	// workload moves, the numerator/denominator of the DAG bench's
	// flat-vs-DAG comparison.
	wireOut atomic.Int64
	wireIn  atomic.Int64
}

// WireBytes reports the bytes received in job results and sent in request
// payloads since construction (or the last ResetWireBytes).
func (c *Client) WireBytes() (in, out int64) {
	return c.wireIn.Load(), c.wireOut.Load()
}

// ResetWireBytes zeroes the wire-byte counters.
func (c *Client) ResetWireBytes() {
	c.wireIn.Store(0)
	c.wireOut.Store(0)
}

// countingReader counts bytes read through it into n.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// FetchParams asks the daemon at base (e.g. "http://127.0.0.1:8631") for its
// parameter set and returns the mirrored ckks.Parameters plus the rotation
// amounts bootstrapping requires (nil when the server has it disabled). ctx
// bounds the whole request: give it a deadline, or a daemon that accepts the
// connection and never answers blocks the caller forever. A daemon on another
// wire version is refused here, with a terminal CodeInvalid error, rather
// than at the first key upload.
func FetchParams(ctx context.Context, base string) (ckks.Parameters, []int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/params", nil)
	if err != nil {
		return ckks.Parameters{}, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ckks.Parameters{}, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ckks.Parameters{}, nil, httpError(resp)
	}
	var pr ParamsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return ckks.Parameters{}, nil, fmt.Errorf("serve: decoding params: %w", err)
	}
	if pr.WireVersion != wire.Version {
		return ckks.Parameters{}, nil, errf(CodeInvalid, "daemon speaks wire version %d, this client version %d", pr.WireVersion, wire.Version)
	}
	p := ckks.Parameters{
		LogN:  pr.LogN,
		Q:     pr.Q,
		P:     pr.P,
		Dnum:  pr.Dnum,
		Scale: pr.Scale,
		H:     pr.H,
		Sigma: pr.Sigma,
	}
	if err := p.Validate(); err != nil {
		return ckks.Parameters{}, nil, fmt.Errorf("serve: server sent invalid parameters: %w", err)
	}
	return p, pr.BootstrapRotations, nil
}

// NewClient returns a client for the daemon at base with the default
// deadlines and retry policy. ctx must mirror the server's parameters
// (build it from FetchParams).
func NewClient(base string, ctx *ckks.Context) *Client {
	return NewClientWithConfig(base, ctx, ClientConfig{})
}

// NewClientWithConfig returns a client with an explicit deadline/retry
// policy.
func NewClientWithConfig(base string, ctx *ckks.Context, cfg ClientConfig) *Client {
	cfg.applyDefaults()
	return &Client{
		base:  base,
		cfg:   cfg,
		hc:    &http.Client{},
		ctx:   ctx,
		codec: wire.NewCodec(ctx),
	}
}

// Context returns the client-side context.
func (c *Client) Context() *ckks.Context { return c.ctx }

// httpError turns a non-200 response into an error. When the body carries
// the server's JSON error envelope, the typed *Error is reconstructed —
// code, retryability and message — so the caller's (and the client's own)
// retry policy sees exactly what the server decided.
func httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		if er.Code != "" {
			return &Error{Code: er.Code, Retryable: er.Retryable,
				Msg: fmt.Sprintf("server returned %s: %s", resp.Status, er.Error)}
		}
		return fmt.Errorf("serve: server returned %s: %s", resp.Status, er.Error)
	}
	return fmt.Errorf("serve: server returned %s", resp.Status)
}

// retryable reports whether an attempt's failure is worth reattempting:
// typed serving errors say so themselves; transport errors (no HTTP
// response at all: connection refused mid-restart, socket killed by a
// daemon crash) are retryable by nature. The caller's own context expiring
// is not — retrying against a spent deadline only burns attempts.
func retryable(err error, transport bool) bool {
	if transport {
		return true
	}
	return IsRetryable(err)
}

// do runs op up to 1+MaxRetries times with full-jitter exponential backoff,
// stopping early on success, a terminal error, or ctx expiring. op reports
// (transportFailure, err); buildBody rebuilds the request body for each
// attempt (bodies are consumed by transmission).
func (c *Client) do(ctx context.Context, attempt func(ctx context.Context) (bool, error)) error {
	var err error
	for try := 0; ; try++ {
		var transport bool
		transport, err = attempt(ctx)
		if err == nil || try >= c.cfg.MaxRetries || !retryable(err, transport) {
			return err
		}
		if ctx != nil && ctx.Err() != nil {
			return err
		}
		backoff := c.cfg.RetryBase << uint(try)
		if backoff > c.cfg.RetryMax || backoff <= 0 {
			backoff = c.cfg.RetryMax
		}
		sleep := time.Duration(rand.Int63n(int64(backoff) + 1))
		if ctx == nil {
			time.Sleep(sleep)
			continue
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return err
		}
	}
}

// attemptCtx derives one attempt's context from the caller's, bounded by
// timeout (<= 0: no per-attempt bound).
func attemptCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, timeout)
}

// post issues one POST attempt with a per-attempt deadline and decodes
// non-200 responses into typed errors. onOK consumes the successful
// response body before it is closed.
func (c *Client) post(ctx context.Context, url, contentType string, body []byte, timeout time.Duration, onOK func(*http.Response) error) (bool, error) {
	actx, cancel := attemptCtx(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", contentType)
	c.wireOut.Add(int64(len(body)))
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, httpError(resp)
	}
	if onOK != nil {
		return false, onOK(resp)
	}
	return false, nil
}

// get issues one GET attempt with a per-attempt deadline.
func (c *Client) get(ctx context.Context, url string, onOK func(*http.Response) error) (bool, error) {
	actx, cancel := attemptCtx(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, httpError(resp)
	}
	if onOK != nil {
		return false, onOK(resp)
	}
	return false, nil
}

// OpenSession registers a named session with the given evaluation keys; nil
// keys are simply omitted from the upload, independently of each other (a
// rotation-only tenant may pass rlk == nil with a non-nil rtks).
func (c *Client) OpenSession(name string, rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) error {
	return c.OpenSessionContext(context.Background(), name, rlk, rtks)
}

// OpenSessionContext is OpenSession bounded by the caller's context.
// Retryable failures (a draining daemon, a store hiccup) are retried; the
// upload body is rebuilt per attempt.
func (c *Client) OpenSessionContext(ctx context.Context, name string, rlk *ckks.SwitchingKey, rtks *ckks.RotationKeySet) error {
	var rlkEnv, rtksEnv []byte
	var err error
	if rlk != nil {
		if rlkEnv, err = c.codec.MarshalSwitchingKey(rlk); err != nil {
			return err
		}
	}
	if rtks != nil {
		if rtksEnv, err = c.codec.MarshalRotationKeySet(rtks); err != nil {
			return err
		}
	}
	payload := slices.Concat(rlkEnv, rtksEnv)
	return c.do(ctx, func(ctx context.Context) (bool, error) {
		return c.post(ctx, c.base+"/v1/sessions?name="+url.QueryEscape(name), "application/x-bts-wire", payload, c.cfg.RequestTimeout, nil)
	})
}

// Do submits a slot-form job — a program of ops over the input ciphertexts
// (see Op) — to the named session and returns the result ciphertext.
// Equivalent to DoContext with a background context: the per-attempt
// JobTimeout still applies.
func (c *Client) Do(session string, ops []Op, inputs ...*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	return c.DoContext(context.Background(), session, ops, inputs...)
}

// DoContext lowers a slot-form job onto job-local registers (lowerSlots)
// and submits it through DoDAG, so it leaves nothing resident server-side.
// A malformed program fails with CodeInvalid before anything is uploaded.
func (c *Client) DoContext(ctx context.Context, session string, ops []Op, inputs ...*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	names, lowered, output, err := lowerSlots(ops, len(inputs))
	if err != nil {
		return nil, err
	}
	outs, err := c.DoDAG(ctx, session, names, lowered, []string{output}, inputs...)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// lowerSlots turns a slot-form program over nInputs uploaded ciphertexts
// into register form: slot k is the job-local register "%k", A/B/By become
// Ra/Rb/Out/By, and "roth" expands into one "rot" per amount, all reading
// the same slot, which the server's fan detector hoists through one shared
// decomposition. The last slot is the single output.
func lowerSlots(ops []Op, nInputs int) (inputNames []string, lowered []Op, output string, err error) {
	if len(ops) == 0 {
		return nil, nil, "", errf(CodeInvalid, "job has no ops")
	}
	slot := func(k int) string { return "%" + strconv.Itoa(k) }
	for k := 0; k < nInputs; k++ {
		inputNames = append(inputNames, slot(k))
	}
	n := nInputs // slots produced so far
	for i, op := range ops {
		if op.Ra != "" || op.Rb != "" || op.Out != "" {
			return nil, nil, "", errf(CodeInvalid, "op %d: register operands on a slot-form op; submit it with DoDAG", i)
		}
		if op.A < 0 || op.A >= n || (op.binary() && (op.B < 0 || op.B >= n)) {
			return nil, nil, "", errf(CodeInvalid, "op %d: operand outside slots [0,%d)", i, n)
		}
		low := Op{Kind: op.Kind, Ra: slot(op.A), Vals: op.Vals}
		switch op.Kind {
		case OpAdd, OpSub, OpMul:
			low.Rb = slot(op.B)
		case OpRotate:
			low.By = op.By
		case OpConjugate, OpRescale, OpBootstrap, OpMulPlain:
		case OpRotateHoisted:
			if len(op.Bys) == 0 {
				return nil, nil, "", errf(CodeInvalid, "op %d: roth with no rotation amounts", i)
			}
			for _, by := range op.Bys {
				lowered = append(lowered, Op{Kind: OpRotate, Ra: low.Ra, By: by, Out: slot(n)})
				n++
			}
			continue
		default:
			return nil, nil, "", errf(CodeInvalid, "op %d: unknown kind %q", i, op.Kind)
		}
		low.Out = slot(n)
		n++
		lowered = append(lowered, low)
	}
	return inputNames, lowered, slot(n - 1), nil
}

// DoDAG submits a register-form DAG job: inputs are bound, in order, to the
// registers named by inputNames before any op runs, and the values of the
// outputs registers come back as the result slice (len(outputs)
// ciphertexts, in order — possibly none: a job may leave everything
// resident server-side for later jobs). Ops address per-session registers
// via Ra/Rb/Out; see the Op and Server.SubmitDAG docs for the model. Each
// attempt carries its own JobTimeout deadline — also shipped to the server
// as the job's deadline, so a timed-out attempt is cancelled server-side
// rather than computing into the void — and failures the server marks
// retryable (plus transport errors: the daemon restarted mid-request) are
// retried with backoff. The serialized request is built once, in one
// exact-size slice that every input's envelope is encoded straight into
// (jobBody), and replayed per attempt; commits a partially-failed attempt
// made are overwritten idempotently by the retry (single-assignment
// programs write each register to the same value).
func (c *Client) DoDAG(ctx context.Context, session string, inputNames []string, ops []Op, outputs []string, inputs ...*ckks.Ciphertext) ([]*ckks.Ciphertext, error) {
	jr := JobRequest{Session: session, Ops: ops, Inputs: inputNames, Outputs: outputs}
	if c.cfg.JobTimeout > 0 {
		jr.TimeoutMs = c.cfg.JobTimeout.Milliseconds()
	}
	payload, err := c.jobBody(jr, inputs)
	if err != nil {
		return nil, err
	}
	var results []*ckks.Ciphertext
	err = c.do(ctx, func(ctx context.Context) (bool, error) {
		results = nil
		return c.post(ctx, c.base+"/v1/jobs", "application/x-bts-wire", payload, c.cfg.JobTimeout, func(resp *http.Response) error {
			cr := &countingReader{r: resp.Body, n: &c.wireIn}
			for range outputs {
				ct, err := c.codec.ReadCiphertext(cr)
				if err != nil {
					return err
				}
				results = append(results, ct)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ciphertextFraming is what a ciphertext's wire envelope adds to its
// residues (ckks.Ciphertext.Bytes): the envelope header (10 bytes), level
// and scale (12) and the N and row count of each polynomial (2 × 8). It
// only sizes buffers that AppendCiphertext fills, so a drift costs a
// regrowth, not correctness; TestDAGJobBodyExactSize pins it.
const ciphertextFraming = 10 + 12 + 2*8

// jobBody serializes a job request: uint32 header length | JSON header |
// one ciphertext envelope per input, in one slice of exactly its size.
func (c *Client) jobBody(jr JobRequest, inputs []*ckks.Ciphertext) ([]byte, error) {
	header, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	size := 4 + len(header)
	for _, ct := range inputs {
		size += int(ct.Bytes()) + ciphertextFraming
	}
	body := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(body, uint32(len(header)))
	body = append(body, header...)
	for _, ct := range inputs {
		if body, err = c.codec.AppendCiphertext(body, ct); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Stats fetches the server's serving statistics.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do(context.Background(), func(ctx context.Context) (bool, error) {
		return c.get(ctx, c.base+"/v1/stats", func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&st)
		})
	})
	return st, err
}

// Healthz probes the daemon's liveness endpoint, without retries — health
// checks sample, they don't persist.
func (c *Client) Healthz() error {
	_, err := c.get(context.Background(), c.base+"/healthz", nil)
	return err
}
