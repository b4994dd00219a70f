package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/wire"
)

func testParams(t testing.TB) ckks.Parameters {
	t.Helper()
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     9,
		LogQ:     []int{45, 38, 38, 38},
		LogP:     46,
		Dnum:     2,
		LogScale: 38,
		H:        16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// clientSide bundles the key material a tenant keeps local plus the
// evaluation keys it uploads.
type clientSide struct {
	ctx     *ckks.Context
	encoder *ckks.Encoder
	enc     *ckks.Encryptor
	dec     *ckks.Decryptor
	rlk     *ckks.SwitchingKey
	rtks    *ckks.RotationKeySet
}

func newClientSide(t testing.TB, params ckks.Parameters, seed int64, rotations []int) *clientSide {
	t.Helper()
	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	return &clientSide{
		ctx:     ctx,
		encoder: ckks.NewEncoder(ctx),
		enc:     ckks.NewEncryptorSK(ctx, sk, seed+1),
		dec:     ckks.NewDecryptor(ctx, sk),
		rlk:     kg.GenRelinearizationKey(sk),
		rtks:    kg.GenRotationKeys(sk, rotations, true),
	}
}

func maxAbsErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		re, im := real(a[i])-real(b[i]), imag(a[i])-imag(b[i])
		if re < 0 {
			re = -re
		}
		if im < 0 {
			im = -im
		}
		if re > m {
			m = re
		}
		if im > m {
			m = im
		}
	}
	return m
}

// submitSlots runs a slot-form program on srv the way Client.Do does:
// lowered onto job-local registers and submitted as a DAG job.
func submitSlots(ctx context.Context, srv *Server, session string, ops []Op, inputs []*ckks.Ciphertext) (*ckks.Ciphertext, error) {
	names, lowered, output, err := lowerSlots(ops, len(inputs))
	if err != nil {
		return nil, err
	}
	outs, err := srv.SubmitDAG(ctx, session, lowered, names, []string{output}, inputs)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

func TestLowerSlots(t *testing.T) {
	cases := []struct {
		name   string
		ops    []Op
		inputs int
		ok     bool
	}{
		{"empty", nil, 1, false},
		{"simple add", []Op{{Kind: OpAdd, A: 0, B: 1}}, 2, true},
		{"unknown kind", []Op{{Kind: "frobnicate", A: 0}}, 1, false},
		{"forward reference", []Op{{Kind: OpAdd, A: 0, B: 1}}, 1, false},
		{"chained", []Op{{Kind: OpRotate, A: 0, By: 1}, {Kind: OpMul, A: 1, B: 0}, {Kind: OpRescale, A: 2}}, 1, true},
		{"negative operand", []Op{{Kind: OpRescale, A: -1}}, 1, false},
		{"no inputs", []Op{{Kind: OpRescale, A: 0}}, 0, false},
		{"result reference", []Op{{Kind: OpMul, A: 0, B: 0}, {Kind: OpAdd, A: 1, B: 1}}, 1, true},
		{"hoisted rotations", []Op{{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2, -1}}}, 1, true},
		{"hoisted empty", []Op{{Kind: OpRotateHoisted, A: 0}}, 1, false},
		{"hoisted slots addressable", []Op{
			{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2}},
			{Kind: OpAdd, A: 1, B: 2},
		}, 1, true},
		{"hoisted slot bound", []Op{
			{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2}},
			{Kind: OpAdd, A: 1, B: 3},
		}, 1, false},
		{"register operands", []Op{{Kind: OpAdd, Ra: "$x", Rb: "$x", Out: "$o"}}, 1, false},
	}
	for _, tc := range cases {
		names, lowered, output, err := lowerSlots(tc.ops, tc.inputs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: got err=%v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			if Code(err) != CodeInvalid {
				t.Errorf("%s: code %q, want %q", tc.name, Code(err), CodeInvalid)
			}
			continue
		}
		// Every accepted lowering is a valid register-form program.
		if _, err := compileRegisters(lowered, names, []string{output}, 64); err != nil {
			t.Errorf("%s: lowered program rejected: %v", tc.name, err)
		}
	}

	// roth expands into one rot per amount, all reading the same slot.
	names, lowered, output, err := lowerSlots([]Op{
		{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2}},
		{Kind: OpAdd, A: 1, B: 2},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Kind: OpRotate, Ra: "%0", By: 1, Out: "%1"},
		{Kind: OpRotate, Ra: "%0", By: 2, Out: "%2"},
		{Kind: OpAdd, Ra: "%1", Rb: "%2", Out: "%3"},
	}
	if fmt.Sprint(names, lowered, output) != fmt.Sprint([]string{"%0"}, want, "%3") {
		t.Fatalf("lowered to %v %v %v, want [%%0] %v %%3", names, lowered, output, want)
	}

	// Each hoisted rotation counts toward the server's op budget on its own.
	names, lowered, output, _ = lowerSlots([]Op{{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2, 3}}}, 1)
	if _, err := compileRegisters(lowered, names, []string{output}, 2); Code(err) != CodeBadJob {
		t.Errorf("roth batch exceeding the op budget: %v, want CodeBadJob", err)
	}
}

// TestRotateHoistedJob submits a program whose rotations ride one hoisted
// decomposition and checks the combined result decrypts correctly.
func TestRotateHoistedJob(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := newClientSide(t, params, 300, []int{1, 2, 3})
	if err := srv.OpenSession("tenant-h", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	slots := params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)
	ct, err := cl.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	// slot1..3 = rotations by 1,2,3; then sum them.
	ops := []Op{
		{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2, 3}},
		{Kind: OpAdd, A: 1, B: 2},
		{Kind: OpAdd, A: 4, B: 3},
	}
	result, err := submitSlots(context.Background(), srv, "tenant-h", ops, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, slots)
	for i := range want {
		want[i] = values[(i+1)%slots] + values[(i+2)%slots] + values[(i+3)%slots]
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(result))
	if e := maxAbsErr(got, want); e > 1e-4 {
		t.Fatalf("hoisted rotation job error %g", e)
	}
	srv.Context().PutCiphertext(result)

	// A missing rotation key inside the hoisted batch must fail the job,
	// not the server.
	if _, err := submitSlots(context.Background(), srv, "tenant-h", []Op{{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 7}}}, []*ckks.Ciphertext{ct}); err == nil {
		t.Fatal("expected job error for missing rotation key in roth batch")
	}
}

// TestServerDirect exercises the scheduler without HTTP: concurrent
// submitters on one session must execute at once (≥2 jobs in flight) and
// every result must decrypt correctly.
func TestServerDirect(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := newClientSide(t, params, 100, []int{1})
	if err := srv.OpenSession("tenant-a", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	slots := params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(2*rng.Float64()-1, 0)
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)

	// The server accepts ciphertexts decoded via its own codec in HTTP mode;
	// in direct mode any ciphertext over the same parameters works.
	// The encryptor's PRNG is stateful, so inputs are encrypted serially;
	// only the submission (and the scheduler behind it) is concurrent.
	const flights = 6
	cts := make([]*ckks.Ciphertext, flights)
	for f := range cts {
		ct, err := cl.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		cts[f] = ct
	}
	// Every op sleeps opDelay first. One job at a time would take at least
	// flights × 3 × opDelay; finishing sooner means two jobs overlapped.
	const opDelay = 50 * time.Millisecond
	defer faultinject.Reset()
	faultinject.Arm("serve.op.exec", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: opDelay})
	var wg sync.WaitGroup
	errs := make([]error, flights)
	results := make([]*ckks.Ciphertext, flights)
	start := time.Now()
	for f := 0; f < flights; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			ops := []Op{
				{Kind: OpRotate, A: 0, By: 1},
				{Kind: OpMul, A: 1, B: 0},
				{Kind: OpRescale, A: 2},
			}
			results[f], errs[f] = submitSlots(context.Background(), srv, "tenant-a", ops, []*ckks.Ciphertext{cts[f]})
		}(f)
	}
	wg.Wait()
	elapsed := time.Since(start)
	faultinject.Reset()

	want := make([]complex128, slots)
	for i := range want {
		want[i] = values[(i+1)%slots] * values[i]
	}
	for f := 0; f < flights; f++ {
		if errs[f] != nil {
			t.Fatalf("flight %d: %v", f, errs[f])
		}
		got := cl.encoder.Decode(cl.dec.DecryptNew(results[f]))
		if e := maxAbsErr(got, want); e > 1e-4 {
			t.Fatalf("flight %d: error %g", f, e)
		}
		srv.Context().PutCiphertext(results[f])
	}

	st := srv.Stats()
	if len(st.Sessions) != 1 {
		t.Fatalf("stats sessions = %d, want 1", len(st.Sessions))
	}
	ss := st.Sessions[0]
	if ss.Jobs != flights || ss.Errors != 0 || ss.Ops != 3*flights {
		t.Fatalf("stats jobs=%d errors=%d ops=%d, want %d/0/%d", ss.Jobs, ss.Errors, ss.Ops, flights, 3*flights)
	}
	if serial := flights * 3 * opDelay; elapsed >= serial {
		t.Fatalf("%d jobs took %v, no less than the %v of one at a time: the scheduler never had 2 jobs in flight", flights, elapsed, serial)
	}
	if ss.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain", ss.QueueDepth)
	}
	if ss.P50Ms <= 0 || ss.P99Ms < ss.P50Ms {
		t.Fatalf("implausible latency percentiles: p50=%g p99=%g", ss.P50Ms, ss.P99Ms)
	}
}

// TestJobErrorsDoNotCrash checks that evaluator panics (missing keys,
// rescale at level 0) surface as job errors while the server keeps serving.
func TestJobErrorsDoNotCrash(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := newClientSide(t, params, 200, []int{1})
	// Keyless session: rotation and multiplication must fail gracefully.
	if err := srv.OpenSession("bare", nil, nil); err != nil {
		t.Fatal(err)
	}
	pt, _ := cl.encoder.Encode([]complex128{1}, 0, params.Scale)
	ct, _ := cl.enc.EncryptNew(pt)
	if _, err := submitSlots(context.Background(), srv, "bare", []Op{{Kind: OpRotate, A: 0, By: 1}}, []*ckks.Ciphertext{ct}); err == nil {
		t.Fatal("rotation without keys should fail")
	}
	// Rescale at level 0 panics inside the evaluator; must come back as error.
	if _, err := submitSlots(context.Background(), srv, "bare", []Op{{Kind: OpRescale, A: 0}}, []*ckks.Ciphertext{ct}); err == nil {
		t.Fatal("rescale at level 0 should fail")
	}
	// Bootstrap on a server without bootstrapping must fail, not panic.
	if _, err := submitSlots(context.Background(), srv, "bare", []Op{{Kind: OpBootstrap, A: 0}}, []*ckks.Ciphertext{ct}); err == nil {
		t.Fatal("bootstrap without a bootstrapper should fail")
	}
	// Unknown session.
	if _, err := submitSlots(context.Background(), srv, "ghost", []Op{{Kind: OpAdd, A: 0, B: 0}}, []*ckks.Ciphertext{ct}); err == nil {
		t.Fatal("unknown session should fail")
	}
	// The server is still alive: a valid job succeeds.
	out, err := submitSlots(context.Background(), srv, "bare", []Op{{Kind: OpAdd, A: 0, B: 0}}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(out))
	if r := real(got[0]); r < 1.99 || r > 2.01 {
		t.Fatalf("add after errors: got %g, want 2", r)
	}
	st := srv.Stats()
	if st.Sessions[0].Errors != 3 {
		t.Fatalf("errors=%d, want 3", st.Sessions[0].Errors)
	}
}

// TestEndToEndHTTP is the full serving demo over loopback HTTP: clients
// fetch parameters, mirror the context, upload evaluation keys, send
// wire-format ciphertexts, and the scheduler executes multi-op jobs
// (rotation + multiply + rescale) from several concurrent tenants.
func TestEndToEndHTTP(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Each tenant fetches params and mirrors the context bit-exactly.
	fetched, bootRots, err := FetchParams(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if bootRots != nil {
		t.Fatal("bootstrap rotations advertised by a non-bootstrapping server")
	}
	for i, q := range params.Q {
		if fetched.Q[i] != q {
			t.Fatal("fetched parameters do not match server primes")
		}
	}

	const tenants = 3
	const jobsPerTenant = 4
	var wg sync.WaitGroup
	failures := make(chan error, tenants*jobsPerTenant)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			name := string(rune('a' + tn))
			cl := newClientSide(t, fetched, int64(1000*(tn+1)), []int{1})
			api := NewClient(ts.URL, cl.ctx)
			if err := api.Healthz(); err != nil {
				failures <- err
				return
			}
			if err := api.OpenSession(name, cl.rlk, cl.rtks); err != nil {
				failures <- err
				return
			}
			slots := fetched.Slots()
			rng := rand.New(rand.NewSource(int64(tn)))
			a := make([]complex128, slots)
			b := make([]complex128, slots)
			for i := range a {
				a[i] = complex(2*rng.Float64()-1, 0)
				b[i] = complex(2*rng.Float64()-1, 0)
			}
			ptA, _ := cl.encoder.Encode(a, fetched.MaxLevel(), fetched.Scale)
			ptB, _ := cl.encoder.Encode(b, fetched.MaxLevel(), fetched.Scale)
			for job := 0; job < jobsPerTenant; job++ {
				ctA, err := cl.enc.EncryptNew(ptA)
				if err != nil {
					failures <- err
					return
				}
				ctB, err := cl.enc.EncryptNew(ptB)
				if err != nil {
					failures <- err
					return
				}
				// rot(a,1) ⊗ b, rescaled, plus a: slots 0=a 1=b, 2=rot,
				// 3=mul, 4=rescale, 5=add.
				ops := []Op{
					{Kind: OpRotate, A: 0, By: 1},
					{Kind: OpMul, A: 2, B: 1},
					{Kind: OpRescale, A: 3},
					{Kind: OpAdd, A: 4, B: 0},
				}
				res, err := api.Do(name, ops, ctA, ctB)
				if err != nil {
					failures <- err
					return
				}
				got := cl.encoder.Decode(cl.dec.DecryptNew(res))
				want := make([]complex128, slots)
				for i := range want {
					want[i] = a[(i+1)%slots]*b[i] + a[i]
				}
				if e := maxAbsErr(got, want); e > 1e-4 {
					failures <- errTest{tn, job, e}
					return
				}
			}
		}(tn)
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}

	st := srv.Stats()
	if len(st.Sessions) != tenants {
		t.Fatalf("sessions=%d, want %d", len(st.Sessions), tenants)
	}
	totalJobs := uint64(0)
	for _, ss := range st.Sessions {
		totalJobs += ss.Jobs
		if ss.Errors != 0 {
			t.Fatalf("session %s: %d errors", ss.Session, ss.Errors)
		}
	}
	if totalJobs != tenants*jobsPerTenant {
		t.Fatalf("jobs=%d, want %d", totalJobs, tenants*jobsPerTenant)
	}
}

type errTest struct {
	tenant, job int
	err         float64
}

func (e errTest) Error() string {
	return "tenant result error too large"
}

// TestHTTPRejectsMalformed drives the job endpoint with garbage.
func TestHTTPRejectsMalformed(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/x-bts-wire", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(nil); code != 400 {
		t.Fatalf("empty body: %d, want 400", code)
	}
	if code := post([]byte{0xff, 0xff, 0xff, 0xff}); code != 400 {
		t.Fatalf("oversized header: %d, want 400", code)
	}
	if code := post([]byte{5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'}); code != 400 {
		t.Fatalf("non-JSON header: %d, want 400", code)
	}

	// A session upload carrying a well-formed envelope with the retired
	// public-key tag 4 is refused, and no session opens.
	retired := []byte{'B', 'T', 'S', 'W', wire.Version, 4, 0, 0, 0, 0}
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions?name=retired", "application/x-bts-wire", bytes.NewReader(retired))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("tag-4 session upload: %d, want 400", resp.StatusCode)
	}
	if _, err := srv.session("retired"); err == nil {
		t.Fatal("tag-4 session upload opened a session")
	}
}

// TestBootstrapJob runs the full serving path for the "bootstrap" op: a
// bootstrappable chain, a session whose rotation keys cover the advertised
// set, and a job that refreshes a level-0 ciphertext server-side.
func TestBootstrapJob(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap serving test is slow")
	}
	logQ := []int{55}
	for i := 0; i < 14; i++ {
		logQ = append(logQ, 45)
	}
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN: 10, LogQ: logQ, LogP: 55, Dnum: 2, LogScale: 45, H: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	bp := ckks.DefaultBootstrapParams()
	// A nanosecond slow-job threshold makes every job "slow", so the test
	// also covers the acceptance path: the retained dump of a bootstrap job
	// must show the full span tree down to the bootstrap phases.
	srv, err := New(Config{Params: params, Bootstrap: &bp, SlowJob: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rots := srv.BootstrapRotations()
	if len(rots) == 0 {
		t.Fatal("bootstrap-enabled server advertises no rotations")
	}

	ctx, err := ckks.NewContext(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(ctx, 7001)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, rots, true)
	encoder := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptorSK(ctx, sk, 7002)
	dec := ckks.NewDecryptor(ctx, sk)
	if err := srv.OpenSession("boot", rlk, rtks); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if len(st.Sessions) != 1 || !st.Sessions[0].Bootstrappable {
		t.Fatal("session with covering keys is not bootstrappable")
	}

	want := []complex128{0.25, -0.5}
	pt, _ := encoder.Encode(want, 0, params.Scale)
	ct, _ := enc.EncryptNew(pt)
	out, err := submitSlots(context.Background(), srv, "boot", []Op{{Kind: OpBootstrap, A: 0}}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	if out.Level <= 0 {
		t.Fatalf("bootstrap did not restore levels: level=%d", out.Level)
	}
	got := encoder.Decode(dec.DecryptNew(out))
	for i := range want {
		d := real(got[i]) - real(want[i])
		if d > 1e-2 || d < -1e-2 {
			t.Fatalf("slot %d: got %g want %g", i, real(got[i]), real(want[i]))
		}
	}

	// The slow-job dump of the bootstrap job must reconstruct the whole
	// hierarchy: op.bootstrap under its dag.stage under serve.job, the four
	// bootstrap phases under the op, evaluator primitives under the phases.
	dumps := srv.SlowJobDumps()
	if len(dumps) == 0 {
		t.Fatal("no slow-job dump retained for the bootstrap job")
	}
	tree := dumps[0].Tree
	for _, span := range []string{
		"serve.job", "op.bootstrap",
		"bootstrap.modraise", "bootstrap.coeff_to_slot", "bootstrap.eval_mod", "bootstrap.slot_to_coeff",
		"ckks.keyswitch",
	} {
		if !strings.Contains(tree, span) {
			t.Fatalf("bootstrap dump missing %s:\n%s", span, tree)
		}
	}
	if !strings.Contains(tree, "\n      bootstrap.eval_mod") {
		t.Fatalf("bootstrap phases not nested under the op span:\n%s", tree)
	}
}

// TestRotationOnlySession covers the session-upload protocol fix: a tenant
// with rotation keys but no relinearization key must get working rot jobs.
func TestRotationOnlySession(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 300, []int{1})
	api := NewClient(ts.URL, cl.ctx)
	if err := api.OpenSession("rot-only", nil, cl.rtks); err != nil {
		t.Fatal(err)
	}
	values := make([]complex128, params.Slots())
	for i := range values {
		values[i] = complex(float64(i%5)/5, 0)
	}
	pt, _ := cl.encoder.Encode(values, params.MaxLevel(), params.Scale)
	ct, _ := cl.enc.EncryptNew(pt)
	res, err := api.Do("rot-only", []Op{{Kind: OpRotate, A: 0, By: 1}}, ct)
	if err != nil {
		t.Fatal(err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(res))
	want := make([]complex128, len(values))
	for i := range want {
		want[i] = values[(i+1)%len(values)]
	}
	if e := maxAbsErr(got, want); e > 1e-4 {
		t.Fatalf("rotation-only session result error %g", e)
	}
	// Multiplication must still fail cleanly on this session.
	if _, err := api.Do("rot-only", []Op{{Kind: OpMul, A: 0, B: 0}}, ct); err == nil {
		t.Fatal("mul without relinearization key should fail")
	}
}

// TestPercentileNearestRank pins Percentile to the nearest-rank definition,
// the ⌈p·n/100⌉-th smallest sample: samples 1..n make the value the rank.
func TestPercentileNearestRank(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{4, 60, 3}, // p·n/100 = 2.4: a rounding rank reads the 2nd
		{16, 90, 15},
		{1070, 99, 1060},
		{10, 90, 9}, // whole rank: no ceiling step
		{4, 50, 2},
		{0, 50, 0},
		{1, 50, 1},
		{1, 99, 1},
		{10, 0, 1},
		{10, 100, 10},
	} {
		if got := Percentile(samples(c.n), c.p); got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p, c.n, got, c.want)
		}
	}
}
