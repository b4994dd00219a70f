package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/wire"
)

func encryptConst(t testing.TB, cl *clientSide, params ckks.Parameters, v complex128) *ckks.Ciphertext {
	t.Helper()
	values := make([]complex128, params.Slots())
	for i := range values {
		values[i] = v
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)
	ct, err := cl.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestCancelledQueuedJobNeverExecutes cancels a job while it waits in the
// queue behind a job holding the server's only slot: the submit must return
// immediately with a typed canceled error, and the job must never execute
// an op.
func TestCancelledQueuedJobNeverExecutes(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 600, []int{1})
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	ct := encryptConst(t, cl, params, 0.5)
	_, flush := occupySlot(t, srv, params, 400*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = submitSlots(ctx, srv, "t", []Op{{Kind: OpMul, A: 0, B: 0}}, []*ckks.Ciphertext{ct})
	elapsed := time.Since(start)
	if Code(err) != CodeCanceled {
		t.Fatalf("got %v, want canceled", err)
	}
	if IsRetryable(err) {
		t.Fatal("a submitter-canceled job must not be marked retryable")
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("cancellation took %v: waited for the busy slot", elapsed)
	}

	// Run the queue dry: if the canceled job were still dispatchable it
	// would execute before the flush job and bump the session's op counters.
	flush()
	ss := statsOf(t, srv, "t")
	if ss.Jobs != 1 || ss.Errors != 1 || ss.QueueDepth != 0 {
		t.Fatalf("stats jobs=%d errors=%d depth=%d, want 1/1/0", ss.Jobs, ss.Errors, ss.QueueDepth)
	}
	if ss.OpMix.Mult != 0 || ss.OpMix.KeySwitchTotal != 0 {
		t.Fatalf("canceled job executed ops: %+v", ss.OpMix)
	}
	if n := srv.tel.jobsCancelled.Load(); n != 1 {
		t.Fatalf("jobsCancelled=%d, want 1", n)
	}
}

// TestDeadlineWhileQueued covers Config.DefaultJobTimeout: a job whose
// deadline expires while it waits for a slot fails with a typed deadline
// error without executing.
func TestDeadlineWhileQueued(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{
		Params:            params,
		Parallel:          1,
		DefaultJobTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 610, []int{1})
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	ct := encryptConst(t, cl, params, 0.5)
	_, flush := occupySlot(t, srv, params, 400*time.Millisecond)
	_, err = submitSlots(context.Background(), srv, "t", []Op{{Kind: OpMul, A: 0, B: 0}}, []*ckks.Ciphertext{ct})
	if Code(err) != CodeDeadline {
		t.Fatalf("got %v, want deadline", err)
	}
	flush()
	if mix := statsOf(t, srv, "t").OpMix; mix.Mult != 0 {
		t.Fatalf("deadline-expired job executed ops: %+v", mix)
	}
}

// TestCancelDoesNotStallOtherTenants cancels tenant A's queued job and then
// queues four jobs of tenant B behind it: once the slot frees, B's jobs must
// dispatch promptly, and A's submit reports the cancellation.
func TestCancelDoesNotStallOtherTenants(t *testing.T) {
	params := testParams(t)
	const hold = 300 * time.Millisecond
	srv, err := New(Config{Params: params, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clA := newClientSide(t, params, 620, []int{1})
	clB := newClientSide(t, params, 630, []int{1})
	if err := srv.OpenSession("a", clA.rlk, clA.rtks); err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenSession("b", clB.rlk, clB.rtks); err != nil {
		t.Fatal(err)
	}
	ops := []Op{{Kind: OpAdd, A: 0, B: 0}}
	inA := encryptConst(t, clA, params, 0.1)
	blocker, _ := occupySlot(t, srv, params, hold)

	ctx, cancel := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := submitSlots(ctx, srv, "a", ops, []*ckks.Ciphertext{inA})
		aDone <- err
	}()
	waitQueued(t, srv, 1)
	cancel()

	start := time.Now()
	var wg sync.WaitGroup
	bErrs := make([]error, 4)
	for f := 0; f < 4; f++ {
		wg.Add(1)
		in := encryptConst(t, clB, params, 0.2) // an Encryptor is single-goroutine
		go func(f int) {
			defer wg.Done()
			ct, err := submitSlots(context.Background(), srv, "b", ops, []*ckks.Ciphertext{in})
			if ct != nil {
				srv.Context().PutCiphertext(ct)
			}
			bErrs[f] = err
		}(f)
	}
	wg.Wait()
	// B waited for the blocker's remaining hold at most; a canceled job in
	// its way must add nothing near another hold on top.
	if el := time.Since(start); el >= 2*hold {
		t.Fatalf("tenant-b's jobs took %v behind a canceled tenant-a job", el)
	}
	for f, err := range bErrs {
		if err != nil {
			t.Fatalf("tenant-b job %d: %v", f, err)
		}
	}
	if err := <-aDone; Code(err) != CodeCanceled {
		t.Fatalf("tenant-a: got %v, want canceled", err)
	}
	if err := <-blocker; err != nil {
		t.Fatalf("blocker job: %v", err)
	}
}

// TestQuotaRejectsOversizedUpload covers Config.SessionQuotaBytes and its
// HTTP mapping (413 with a terminal typed error).
func TestQuotaRejectsOversizedUpload(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, SessionQuotaBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 640, []int{1})

	err = srv.OpenSession("fat", cl.rlk, cl.rtks)
	if Code(err) != CodeQuota {
		t.Fatalf("got %v, want quota", err)
	}
	if IsRetryable(err) {
		t.Fatal("quota overrun must be terminal")
	}
	if n := srv.tel.quotaRejections.Load(); n != 1 {
		t.Fatalf("quotaRejections=%d, want 1", n)
	}
	// A keyless session has zero key bytes and passes any quota.
	if err := srv.OpenSession("thin", nil, nil); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	api := NewClientWithConfig(ts.URL, cl.ctx, ClientConfig{MaxRetries: -1})
	err = api.OpenSession("fat2", cl.rlk, cl.rtks)
	if Code(err) != CodeQuota || IsRetryable(err) {
		t.Fatalf("HTTP quota error came back as %v", err)
	}
}

// TestKeyCacheEviction bounds resident decoded keys to roughly one session
// and checks the LRU evicts the cold tenant to disk, rehydrates it on its
// next job, and exports the governance metrics.
func TestKeyCacheEviction(t *testing.T) {
	params := testParams(t)
	cl1 := newClientSide(t, params, 650, []int{1})
	cl2 := newClientSide(t, params, 660, []int{1})
	kb := keySetBytes(cl1.rlk, cl1.rtks)
	srv, err := New(Config{
		Params:        params,
		StoreDir:      t.TempDir(),
		KeyCacheBytes: kb + kb/2, // one session fits, two do not
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.OpenSession("a", cl1.rlk, cl1.rtks); err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenSession("b", cl2.rlk, cl2.rtks); err != nil {
		t.Fatal(err)
	}

	resident := make(map[string]bool)
	var keyBytesA int64
	for _, ss := range srv.Stats().Sessions {
		resident[ss.Session] = ss.Resident
		if ss.Session == "a" {
			keyBytesA = ss.KeyBytes
		}
	}
	if resident["a"] || !resident["b"] {
		t.Fatalf("after opening b, residency = %v, want a evicted, b resident", resident)
	}
	if keyBytesA != kb {
		t.Fatalf("session a key bytes %d, want %d", keyBytesA, kb)
	}

	// A job on the evicted session rehydrates from disk and still computes.
	ct := encryptConst(t, cl1, params, 0.25)
	out, err := submitSlots(context.Background(), srv, "a", []Op{{Kind: OpAdd, A: 0, B: 0}}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	got := cl1.encoder.Decode(cl1.dec.DecryptNew(out))
	if r := real(got[0]); r < 0.49 || r > 0.51 {
		t.Fatalf("rehydrated session computed %g, want 0.5", r)
	}
	srv.Context().PutCiphertext(out)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"bts_key_resident_bytes", "bts_key_evictions_total", "bts_key_reloads_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	if srv.keys.evictions.Load() < 1 || srv.keys.reloads.Load() < 1 {
		t.Fatalf("evictions=%d reloads=%d, want >=1 each", srv.keys.evictions.Load(), srv.keys.reloads.Load())
	}
}

// TestQuarantineAfterRepeatedPanics arms a panicking op failpoint and
// checks the session quarantines after quarantineAfter consecutive faults,
// that submits then fail terminally, and that reopening the session clears
// it.
func TestQuarantineAfterRepeatedPanics(t *testing.T) {
	defer faultinject.Reset()
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 670, []int{1})
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	ct := encryptConst(t, cl, params, 0.5)
	ops := []Op{{Kind: OpAdd, A: 0, B: 0}}

	faultinject.Arm("serve.op.exec", faultinject.Spec{Mode: faultinject.ModePanic})
	for i := 0; i < quarantineAfter; i++ {
		_, err := submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{ct})
		if Code(err) != CodeInternal || !IsRetryable(err) {
			t.Fatalf("panicking job %d: got %v, want retryable internal", i, err)
		}
	}
	_, err = submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{ct})
	if Code(err) != CodeQuarantined || IsRetryable(err) {
		t.Fatalf("after %d faults: got %v, want terminal quarantined", quarantineAfter, err)
	}
	if n := srv.tel.quarantines.Load(); n != 1 {
		t.Fatalf("quarantines=%d, want 1", n)
	}
	srv.tel.panicMu.Lock()
	panicked := srv.tel.panics["(pre-op)"]
	srv.tel.panicMu.Unlock()
	if panicked != quarantineAfter {
		t.Fatalf("panic counter %d, want %d", panicked, quarantineAfter)
	}

	// Reopening the session (fresh key upload) clears the quarantine.
	faultinject.Reset()
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	out, err := submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatalf("after reopen: %v", err)
	}
	srv.Context().PutCiphertext(out)
}

// TestQuarantineIgnoresBadPrograms sends, over HTTP, five programs the evaluator
// would panic on: each must fail once with a terminal CodeBadJob (the
// client does not retry it), none may count toward quarantine, and a valid
// job must then succeed.
func TestQuarantineIgnoresBadPrograms(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := newClientSide(t, params, 800, []int{1})
	// Upload the rotation-by-1 key only: no relinearization key and no
	// conjugation key.
	g := cl.ctx.RingQ.GaloisElement(1)
	rtks := &ckks.RotationKeySet{Keys: map[uint64]*ckks.SwitchingKey{g: cl.rtks.Keys[g]}}
	api := NewClientWithConfig(ts.URL, cl.ctx, ClientConfig{RetryBase: time.Millisecond})
	if err := api.OpenSession("t", nil, rtks); err != nil {
		t.Fatal(err)
	}
	x := encryptConst(t, cl, params, 0.5)
	pt, _ := cl.encoder.Encode([]complex128{0.5}, 0, params.Scale)
	bottom, _ := cl.enc.EncryptNew(pt)
	pt, _ = cl.encoder.Encode([]complex128{0.5}, params.MaxLevel(), 2*params.Scale)
	wide, _ := cl.enc.EncryptNew(pt)

	for _, tc := range []struct {
		name string
		ops  []Op
		in   []*ckks.Ciphertext
	}{
		{"rescale at level 0", []Op{{Kind: OpRescale}}, []*ckks.Ciphertext{bottom}},
		{"add of mismatched scales", []Op{{Kind: OpAdd, A: 0, B: 1}}, []*ckks.Ciphertext{x, wide}},
		{"mul without relinearization key", []Op{{Kind: OpMul}}, []*ckks.Ciphertext{x}},
		{"rot without its key", []Op{{Kind: OpRotate, By: 2}}, []*ckks.Ciphertext{x}},
		{"conj without its key", []Op{{Kind: OpConjugate}}, []*ckks.Ciphertext{x}},
	} {
		if _, err := api.Do("t", tc.ops, tc.in...); Code(err) != CodeBadJob || IsRetryable(err) {
			t.Fatalf("%s: %v, want terminal CodeBadJob", tc.name, err)
		}
	}
	if ss := srv.Stats().Sessions[0]; ss.Jobs != 5 || ss.Quarantined {
		t.Fatalf("server ran %d jobs (quarantined %v), want 5 and not quarantined", ss.Jobs, ss.Quarantined)
	}
	res, err := api.Do("t", []Op{{Kind: OpRotate, By: 1}}, x)
	if err != nil {
		t.Fatalf("valid job after bad programs: %v", err)
	}
	if got := real(cl.encoder.Decode(cl.dec.DecryptNew(res))[0]); got < 0.49 || got > 0.51 {
		t.Fatalf("valid job computed %g, want 0.5", got)
	}
}

// TestFailpointsFailJobsCleanly exercises the error-mode failpoints at the
// dispatch and store boundaries: jobs fail with retryable typed errors and
// the server keeps serving.
func TestFailpointsFailJobsCleanly(t *testing.T) {
	defer faultinject.Reset()
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 680, []int{1})
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	ct := encryptConst(t, cl, params, 0.5)
	ops := []Op{{Kind: OpAdd, A: 0, B: 0}}

	faultinject.Arm("serve.sched.dispatch", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	_, err = submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{ct})
	if Code(err) != CodeInternal || !IsRetryable(err) {
		t.Fatalf("dispatch failpoint: got %v, want retryable internal", err)
	}
	// Count=1: the retry succeeds.
	out, err := submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatalf("retry after dispatch fault: %v", err)
	}
	srv.Context().PutCiphertext(out)
}

// TestDrainCompletesInFlight checks Drain: jobs queued behind a busy slot
// when Drain starts all complete, subsequent submits fail with a retryable
// unavailable error, and Drain returns once idle.
func TestDrainCompletesInFlight(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := newClientSide(t, params, 690, []int{1})
	if err := srv.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	blocker, _ := occupySlot(t, srv, params, 200*time.Millisecond)
	ops := []Op{{Kind: OpMul, A: 0, B: 0}, {Kind: OpRescale, A: 1}}
	const flights = 4
	errs := make([]error, flights)
	var wg sync.WaitGroup
	for f := 0; f < flights; f++ {
		wg.Add(1)
		in := encryptConst(t, cl, params, 0.3) // an Encryptor is single-goroutine
		go func(f int) {
			defer wg.Done()
			ct, err := submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{in})
			if ct != nil {
				srv.Context().PutCiphertext(ct)
			}
			errs[f] = err
		}(f)
	}
	waitQueued(t, srv, flights)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker job: %v", err)
	}
	for f, err := range errs {
		if err != nil {
			t.Fatalf("queued flight %d: %v", f, err)
		}
	}
	if ss := statsOf(t, srv, "t"); ss.Jobs != flights || ss.Errors != 0 || ss.QueueDepth != 0 {
		t.Fatalf("after drain: jobs=%d errors=%d depth=%d, want %d/0/0", ss.Jobs, ss.Errors, ss.QueueDepth, flights)
	}
	if _, err := submitSlots(context.Background(), srv, "t", ops, []*ckks.Ciphertext{encryptConst(t, cl, params, 0.3)}); Code(err) != CodeUnavailable || !IsRetryable(err) {
		t.Fatalf("submit after drain: got %v, want retryable unavailable", err)
	}
}

// TestChaosKillRestart is the fault-tolerance invariant test: a daemon is
// killed abruptly mid-workload (listener and server torn down, in-flight
// HTTP connections severed) and restarted on the same address and store.
// Clients retry through it; every job must eventually complete with a
// result bit-identical to the pre-chaos golden bytes — transient failures
// along the way must all be typed retryable errors or transport errors,
// never a wrong ciphertext.
func TestChaosKillRestart(t *testing.T) {
	defer faultinject.Reset()
	params := testParams(t)
	dir := t.TempDir()
	cfg := Config{Params: params, StoreDir: dir}

	start := func(addr string) (*Server, *http.Server, string) {
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ln net.Listener
		deadline := time.Now().Add(5 * time.Second)
		for {
			ln, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rebinding %s: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		return srv, hs, ln.Addr().String()
	}

	srv1, hs1, addr := start("127.0.0.1:0")
	base := "http://" + addr

	cl := newClientSide(t, params, 700, []int{1})
	api := NewClientWithConfig(base, cl.ctx, ClientConfig{
		RequestTimeout: 5 * time.Second,
		JobTimeout:     10 * time.Second,
		MaxRetries:     10,
		RetryBase:      20 * time.Millisecond,
		RetryMax:       250 * time.Millisecond,
	})
	if err := api.OpenSession("chaos", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	input := encryptConst(t, cl, params, 0.5)
	ops := []Op{{Kind: OpRotate, A: 0, By: 1}, {Kind: OpMul, A: 1, B: 0}, {Kind: OpRescale, A: 2}}

	// Jobs are deterministic functions of (input, keys), so the first
	// result's wire bytes are the golden answer every later run must match
	// bit-for-bit.
	codec := wire.NewCodec(cl.ctx)
	marshal := func(ct *ckks.Ciphertext) []byte {
		var buf bytes.Buffer
		if err := codec.WriteCiphertext(&buf, ct); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	first, err := api.Do("chaos", ops, input)
	if err != nil {
		t.Fatal(err)
	}
	golden := marshal(first)

	// Workers hammer the same job; each submission retries (on top of the
	// client's own retry loop) until it succeeds or the test deadline hits.
	const workers, jobsPerWorker = 3, 4
	var wg sync.WaitGroup
	testDeadline := time.Now().Add(60 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for jb := 0; jb < jobsPerWorker; jb++ {
				for {
					res, err := api.Do("chaos", ops, input)
					if err == nil {
						if !bytes.Equal(marshal(res), golden) {
							t.Errorf("worker %d job %d: result differs from golden bytes", w, jb)
						}
						break
					}
					// The invariant: every failure is retryable-typed or a
					// transport error (no typed code at all).
					if code := Code(err); code != "" && !IsRetryable(err) {
						t.Errorf("worker %d job %d: terminal error during chaos: %v", w, jb, err)
						return
					}
					if time.Now().After(testDeadline) {
						t.Errorf("worker %d job %d: never completed: last error %v", w, jb, err)
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		}(w)
	}

	// Kill the daemon abruptly mid-workload: sever every connection, fail
	// every queued job, close the store handle.
	time.Sleep(150 * time.Millisecond)
	_ = hs1.Close()
	srv1.Close()

	// While it's down, also arm a one-shot store fault for the restart: the
	// first rehydration attempt fails (retryably) and the retry succeeds.
	faultinject.Arm("serve.store.load", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})

	time.Sleep(100 * time.Millisecond)
	srv2, hs2, _ := start(addr)
	defer func() {
		_ = hs2.Close()
		srv2.Close()
	}()

	// Whatever the worker timing (on a fast host all 12 jobs can finish
	// before the kill), run one job against the restarted daemon from here:
	// it must rehydrate the session from disk — through the armed one-shot
	// store fault — and still match the golden bytes.
	for {
		res, err := api.Do("chaos", ops, input)
		if err == nil {
			if !bytes.Equal(marshal(res), golden) {
				t.Error("post-restart result differs from golden bytes")
			}
			break
		}
		if code := Code(err); code != "" && !IsRetryable(err) {
			t.Fatalf("terminal error after restart: %v", err)
		}
		if time.Now().After(testDeadline) {
			t.Fatalf("post-restart job never completed: last error %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	wg.Wait()
	if t.Failed() {
		return
	}
	// The restarted daemon rehydrated the session from disk (≥1 reload) and
	// the armed store failpoint actually fired.
	if srv2.keys.reloads.Load() < 1 {
		t.Fatal("restarted server never rehydrated the session from the store")
	}
	if faultinject.Hits("serve.store.load") < 1 {
		t.Fatal("store failpoint never evaluated")
	}
}
