package serve

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bts/internal/ckks"
)

// httpGet fetches a URL and returns the body text and status code.
func httpGet(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.StatusCode
}

// TestMetricsEndToEnd drives the full HTTP path with metrics on (the
// default) and checks the scrape exposes non-zero engine, scheduler, wire,
// per-op latency, op-mix, and noise-floor series, and that /v1/stats carries
// the op mix and reservoir metadata.
func TestMetricsEndToEnd(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 500, []int{1})
	api := NewClient(ts.URL, cl.ctx)
	if err := api.OpenSession("metered", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	slots := params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)
	ops := []Op{
		{Kind: OpRotate, A: 0, By: 1},
		{Kind: OpMul, A: 1, B: 0},
		{Kind: OpRescale, A: 2},
	}
	for i := 0; i < 3; i++ {
		ct, err := cl.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := api.Do("metered", ops, ct); err != nil {
			t.Fatal(err)
		}
	}

	body, code := httpGet(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, series := range []string{
		"bts_engine_runs_total",
		"bts_engine_tasks_total",
		"bts_pool_gets_total",
		`bts_wire_bytes_total{dir="in"}`,
		`bts_wire_bytes_total{dir="out"}`,
		`bts_jobs_total{result="ok"}`,
		"bts_job_latency_seconds_count",
		`bts_op_latency_seconds_count{op="mul"`,
		`bts_op_latency_seconds_count{op="rot"`,
		`bts_session_ops_total{session="metered",kind="mult"}`,
		`bts_session_ops_total{session="metered",kind="key_switch"}`,
		`bts_session_jobs_total{session="metered"}`,
		`bts_noise_floor_bits{session="metered"}`,
		"bts_queue_depth",
		"bts_sessions_open",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("scrape missing series %s", series)
		}
	}
	// The load-bearing counters must be non-zero, not merely present.
	for _, series := range []string{
		"bts_engine_tasks_total",
		`bts_jobs_total{result="ok"}`,
		`bts_session_ops_total{session="metered",kind="mult"}`,
	} {
		v, ok := metricValue(body, series)
		if !ok {
			t.Fatalf("cannot parse %s from scrape", series)
		}
		if v <= 0 {
			t.Errorf("%s = %g, want > 0", series, v)
		}
	}

	// /v1/stats: op mix, reservoir metadata, and the noise floor ride along.
	st := srv.Stats()
	if len(st.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(st.Sessions))
	}
	ss := st.Sessions[0]
	if ss.OpMix.Mult == 0 || ss.OpMix.Rescale == 0 || ss.OpMix.KeySwitchTotal == 0 {
		t.Fatalf("op mix not populated: %+v", ss.OpMix)
	}
	if ss.LatWindow != latSamples || ss.LatSamples != 3 {
		t.Fatalf("reservoir metadata lat_window=%d lat_samples=%d, want %d/3", ss.LatWindow, ss.LatSamples, latSamples)
	}
	if ss.NoiseFloorBits == nil || *ss.NoiseFloorBits <= 0 {
		t.Fatalf("noise floor not populated: %v", ss.NoiseFloorBits)
	}

	// /debug/vars responds with expvar JSON when metrics are on.
	if _, code := httpGet(t, ts.URL+"/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
}

// TestMetricsDisabled checks the opt-out: no /metrics, no /debug/vars, no
// noise floor in stats, and serving still works.
func TestMetricsDisabled(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, code := httpGet(t, ts.URL+"/metrics"); code != 404 {
		t.Fatalf("/metrics status %d with metrics disabled, want 404", code)
	}
	if _, code := httpGet(t, ts.URL+"/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars status %d with metrics disabled, want 404", code)
	}
	if srv.tel != nil && srv.tel.reg != nil {
		t.Fatal("metrics registry non-nil with metrics disabled")
	}

	cl := newClientSide(t, params, 510, []int{1})
	if err := srv.OpenSession("dark", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	pt, _ := cl.encoder.Encode([]complex128{1}, params.MaxLevel(), params.Scale)
	ct, _ := cl.enc.EncryptNew(pt)
	out, err := submitSlots(context.Background(), srv, "dark", []Op{{Kind: OpAdd, A: 0, B: 0}}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	srv.Context().PutCiphertext(out)
	if st := srv.Stats(); st.Sessions[0].NoiseFloorBits != nil {
		t.Fatal("noise floor reported with telemetry disabled")
	}
}

// TestConcurrentScrapes is the satellite-(c) race test: Server.Stats() and
// /metrics scrapes run concurrently with in-flight jobs (run with -race).
func TestConcurrentScrapes(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, SlowJob: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 520, []int{1})
	if err := srv.OpenSession("racy", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	pt, _ := cl.encoder.Encode([]complex128{0.5}, params.MaxLevel(), params.Scale)

	const jobs = 16
	cts := make([]*ckks.Ciphertext, jobs)
	for i := range cts {
		ct, err := cl.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 2; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = srv.Stats()
				if body, code := httpGet(t, ts.URL+"/metrics"); code != 200 || body == "" {
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := []Op{
				{Kind: OpRotate, A: 0, By: 1},
				{Kind: OpMul, A: 1, B: 0},
				{Kind: OpRescale, A: 2},
			}
			out, err := submitSlots(context.Background(), srv, "racy", ops, []*ckks.Ciphertext{cts[i]})
			errs[i] = err
			if err == nil {
				srv.Context().PutCiphertext(out)
			}
		}(i)
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestSlowJobTraceDump sets a threshold every job exceeds and checks the
// retained dump reconstructs the span hierarchy: serve.job at the root,
// serve.queue and dag.stage spans under it, op spans under their stage,
// evaluator spans under the ops.
func TestSlowJobTraceDump(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params, SlowJob: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 530, []int{1})
	if err := srv.OpenSession("slow", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	pt, _ := cl.encoder.Encode([]complex128{0.25}, params.MaxLevel(), params.Scale)
	ct, _ := cl.enc.EncryptNew(pt)
	ops := []Op{
		{Kind: OpRotate, A: 0, By: 1},
		{Kind: OpMul, A: 1, B: 0},
		{Kind: OpRescale, A: 2},
	}
	out, err := submitSlots(context.Background(), srv, "slow", ops, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	srv.Context().PutCiphertext(out)

	dumps := srv.SlowJobDumps()
	if len(dumps) != 1 {
		t.Fatalf("retained dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Session != "slow" || d.Ops != 3 || d.LatencyMs <= 0 {
		t.Fatalf("dump metadata: %+v", d)
	}
	for _, span := range []string{"serve.job", "serve.queue", "op.rot", "op.mul", "op.rescale", "ckks.keyswitch"} {
		if !strings.Contains(d.Tree, span) {
			t.Fatalf("dump tree missing %s:\n%s", span, d.Tree)
		}
	}
	// Stage spans are indented under the root, op spans under their stage,
	// evaluator spans deeper still.
	if !strings.Contains(d.Tree, "\n  dag.stage") || !strings.Contains(d.Tree, "\n    op.mul") ||
		!strings.Contains(d.Tree, "\n      ckks.mulrelin") {
		t.Fatalf("dump tree not hierarchical:\n%s", d.Tree)
	}
	// The op spans carry level and noise-margin attributes.
	if !strings.Contains(d.Tree, "level=") || !strings.Contains(d.Tree, "margin=") {
		t.Fatalf("dump tree missing level/margin attributes:\n%s", d.Tree)
	}

	// The HTTP view agrees.
	body, code := httpGet(t, ts.URL+"/v1/traces")
	if code != 200 || !strings.Contains(body, "serve.job") {
		t.Fatalf("/v1/traces status %d body %q", code, body)
	}
	// And the scrape counts the slow job.
	metrics, _ := httpGet(t, ts.URL+"/metrics")
	if v, ok := metricValue(metrics, "bts_slow_jobs_total"); !ok || v != 1 {
		t.Fatalf("bts_slow_jobs_total = %g (ok=%v), want 1", v, ok)
	}
}

// TestReservoirWrap is the satellite-(b) regression test: percentile
// reporting once latN exceeds the window, including counter values that
// would overflow a naive uint64→int conversion.
func TestReservoirWrap(t *testing.T) {
	sess := &session{name: "wrap"}
	// NewEvaluator is needed only for Counters(); build a bare one via the
	// snapshot path's requirements.
	params := testParams(t)
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	sess.eval = ckks.NewEvaluator(ctx, ckks.NewEncoder(ctx), nil, nil)

	st := &sess.stats
	for i := 0; i < latSamples+100; i++ {
		st.enqueued()
		st.completed(time.Duration(i+1)*time.Millisecond, 1, nil)
	}
	ss := sess.snapshot()
	if ss.LatSamples != latSamples || ss.LatWindow != latSamples {
		t.Fatalf("wrapped reservoir lat_samples=%d lat_window=%d, want %d/%d",
			ss.LatSamples, ss.LatWindow, latSamples, latSamples)
	}
	// The window holds samples 101..latSamples+100 ms; the max must be the
	// newest, and p50 must sit inside the window, not at the lifetime median.
	if ss.MaxMs != float64(latSamples+100) {
		t.Fatalf("max %.0fms, want %dms", ss.MaxMs, latSamples+100)
	}
	if ss.P50Ms <= 100 {
		t.Fatalf("p50 %.0fms references evicted samples", ss.P50Ms)
	}

	// A counter value past the int32 (and int63) range must clamp, not slice
	// out of bounds.
	st.mu.Lock()
	st.latN = 1<<63 + 42
	st.mu.Unlock()
	ss = sess.snapshot()
	if ss.LatSamples != latSamples {
		t.Fatalf("huge latN: lat_samples=%d, want %d", ss.LatSamples, latSamples)
	}
}

// metricValue extracts the sample value of an exact series (name plus label
// block) from exposition text.
func metricValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
