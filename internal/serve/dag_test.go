package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/wire"
)

// dagRot is shorthand for a register-form rotation op.
func dagRot(ra, out string, by int) Op {
	return Op{Kind: OpRotate, Ra: ra, Out: out, By: by}
}

// dagAdd is shorthand for a register-form addition op.
func dagAdd(ra, rb, out string) Op {
	return Op{Kind: OpAdd, Ra: ra, Rb: rb, Out: out}
}

// TestDAGValidation drives SubmitDAG with malformed programs: every case
// must be rejected before execution with a terminal CodeBadJob, and the
// message must name the offending construct.
func TestDAGValidation(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 700, []int{1, 2})
	if err := srv.OpenSession("a", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	cl2 := newClientSide(t, params, 710, []int{1})
	if err := srv.OpenSession("b", cl2.rlk, cl2.rtks); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	x := encryptConst(t, cl, params, 0.5)

	// Seed $x in session a so operand resolution has something real to hit.
	if _, err := srv.SubmitDAG(ctx, "a", nil, []string{"$x"}, nil, []*ckks.Ciphertext{x}); err != nil {
		t.Fatalf("upload-only DAG job: %v", err)
	}

	cases := []struct {
		name       string
		ops        []Op
		inputNames []string
		outputs    []string
		inputs     []*ckks.Ciphertext
		want       string
	}{
		{"cycle", []Op{dagRot("$q", "$p", 1), dagRot("$p", "$q", 1)}, nil, nil, nil, "cycle"},
		{"dangling read", []Op{dagRot("$ghost", "$o", 1)}, nil, nil, nil, "does not exist"},
		{"unbound job-local read", []Op{dagRot("%t", "$o", 1)}, nil, nil, nil, "neither bound nor written"},
		{"unbound job-local output", []Op{dagRot("$x", "%o", 1)}, nil, []string{"%p"}, nil, "neither bound nor written"},
		{"invalid job-local name", []Op{dagRot("$x", "%", 1)}, nil, nil, nil, "invalid result register"},
		{"invalid out name", []Op{dagRot("$x", "nodollar", 1)}, nil, nil, nil, "invalid result register"},
		{"roth rejected", []Op{{Kind: OpRotateHoisted, Ra: "$x", Out: "$o"}}, nil, nil, nil, "no register form"},
		{"mixed addressing", []Op{{Kind: OpRotate, Ra: "$x", Out: "$o", By: 1, A: 1}}, nil, nil, nil, "slot-form"},
		{"double write", []Op{dagRot("$x", "$o", 1), dagRot("$x", "$o", 2)}, nil, nil, nil, "single assignment"},
		{"shadowed input", []Op{dagRot("$in", "$in", 1)}, []string{"$in"}, nil, []*ckks.Ciphertext{x}, "both an input binding and an op result"},
		{"pmul without vals", []Op{{Kind: OpMulPlain, Ra: "$x", Out: "$o"}}, nil, nil, nil, "without a plaintext vector"},
		{"vals on rot", []Op{{Kind: OpRotate, Ra: "$x", Out: "$o", By: 1, Vals: []float64{1}}}, nil, nil, nil, "non-pmul"},
		{"missing ra", []Op{{Kind: OpRotate, Out: "$o", By: 1}}, nil, nil, nil, "missing operand register"},
		{"missing rb", []Op{{Kind: OpAdd, Ra: "$x", Out: "$o"}}, nil, nil, nil, "second operand register"},
		{"rb on unary", []Op{{Kind: OpRotate, Ra: "$x", Rb: "$x", Out: "$o", By: 1}}, nil, nil, nil, "no second operand"},
		{"empty job", nil, nil, nil, nil, "empty DAG"},
		{"binding count mismatch", nil, []string{"$a1", "$a2"}, nil, []*ckks.Ciphertext{x}, "input bindings"},
		{"dangling output", []Op{dagRot("$x", "$o", 1)}, nil, []string{"$nope"}, nil, "does not exist"},
		{"duplicate output", []Op{dagRot("$x", "$o", 1)}, nil, []string{"$o", "$o"}, nil, "requested twice"},
	}
	for _, tc := range cases {
		_, err := srv.SubmitDAG(ctx, "a", tc.ops, tc.inputNames, tc.outputs, tc.inputs)
		if err == nil {
			t.Fatalf("%s: accepted, want CodeBadJob", tc.name)
		}
		if Code(err) != CodeBadJob {
			t.Fatalf("%s: code %q, want %q (%v)", tc.name, Code(err), CodeBadJob, err)
		}
		if IsRetryable(err) {
			t.Fatalf("%s: bad job marked retryable: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Registers are session-scoped: session b cannot read a's $x.
	if _, err := srv.SubmitDAG(ctx, "b", []Op{dagRot("$x", "$o", 1)}, nil, nil, nil); Code(err) != CodeBadJob {
		t.Fatalf("cross-session register read: %v, want CodeBadJob", err)
	}

	// A job-local register lives only inside its job: a "%" result is
	// returned, but is neither committed nor visible to the next job.
	regsBefore := srv.Stats().Sessions[0].Registers
	outs, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd("$x", "$x", "%y")}, nil, []string{"%y"}, nil)
	if err != nil {
		t.Fatalf("job-local output: %v", err)
	}
	if got := real(cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))[0]); got < 0.99 || got > 1.01 {
		t.Fatalf("job-local output decrypts to %g, want 1", got)
	}
	if n := srv.Stats().Sessions[0].Registers; n != regsBefore {
		t.Fatalf("job-local result committed: %d registers, want %d", n, regsBefore)
	}
	_, err = srv.SubmitDAG(ctx, "a", []Op{dagRot("%y", "$o", 1)}, nil, nil, nil)
	if Code(err) != CodeBadJob || !strings.Contains(err.Error(), "neither bound nor written") {
		t.Fatalf("read of an earlier job's %%y: %v, want CodeBadJob", err)
	}
}

// TestDAGComputeAndPersist runs the full HTTP round trip: one request
// uploads $x, a later request computes over the persisted register without
// re-uploading it, and the hot pmul encoding is served from the session
// cache on repeat.
func TestDAGComputeAndPersist(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 720, []int{1, 2})
	api := NewClient(ts.URL, cl.ctx)
	if err := api.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}

	slots := params.Slots()
	a := make([]complex128, slots)
	for i := range a {
		a[i] = complex(float64(i%5)/10, 0)
	}
	pt, _ := cl.encoder.Encode(a, params.MaxLevel(), params.Scale)
	ct, err := cl.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	outs, err := api.DoDAG(ctx, "t", []string{"$x"}, nil, nil, ct)
	if err != nil {
		t.Fatalf("upload DAG job: %v", err)
	}
	if len(outs) != 0 {
		t.Fatalf("upload-only job returned %d outputs, want 0", len(outs))
	}

	// The compute request carries no ciphertexts at all: it reads the
	// persisted $x, fans two rotations (auto-hoisted), adds, and scales by a
	// plaintext half.
	ops := []Op{
		dagRot("$x", "$r1", 1),
		dagRot("$x", "$r2", 2),
		dagAdd("$r1", "$r2", "$s"),
		{Kind: OpMulPlain, Ra: "$s", Out: "$y", Vals: []float64{0.5}},
	}
	hoistBefore := srv.tel.hoistShared.Load()
	outs, err = api.DoDAG(ctx, "t", nil, ops, []string{"$y"})
	if err != nil {
		t.Fatalf("compute DAG job: %v", err)
	}
	if len(outs) != 1 {
		t.Fatalf("compute job returned %d outputs, want 1", len(outs))
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))
	want := make([]complex128, slots)
	for i := range want {
		want[i] = (a[(i+1)%slots] + a[(i+2)%slots]) * 0.5
	}
	if e := maxAbsErr(got, want); e > 1e-4 {
		t.Fatalf("DAG result error %g", e)
	}
	if srv.tel.hoistShared.Load() <= hoistBefore {
		t.Fatal("same-register rotation fan did not share a decomposition")
	}

	// All five registers stay resident server-side.
	ss := srv.Stats().Sessions[0]
	if ss.Registers != 5 || ss.RegisterBytes <= 0 {
		t.Fatalf("session holds %d registers (%d bytes), want 5 resident", ss.Registers, ss.RegisterBytes)
	}

	// Re-running the same program hits the session's encoding cache for the
	// pmul plaintext and overwrites the registers in place.
	encHitsBefore := srv.tel.encHits.Load()
	outs, err = api.DoDAG(ctx, "t", nil, ops, []string{"$y"})
	if err != nil {
		t.Fatalf("repeat DAG job: %v", err)
	}
	got = cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))
	if e := maxAbsErr(got, want); e > 1e-4 {
		t.Fatalf("repeat DAG result error %g", e)
	}
	if srv.tel.encHits.Load() <= encHitsBefore {
		t.Fatal("repeated pmul did not hit the encoding cache")
	}
	if ss := srv.Stats().Sessions[0]; ss.Registers != 5 {
		t.Fatalf("register overwrite grew the set to %d, want 5", ss.Registers)
	}

	in, out := api.WireBytes()
	if in <= 0 || out <= 0 {
		t.Fatalf("wire byte counters in=%d out=%d, want both positive", in, out)
	}
}

// TestDAGSlotJobsLeaveNoResidue runs slot jobs through Client.Do on a
// session whose quota is exactly its key footprint: their job-local
// registers are never committed, so the jobs fit and the session's register
// set is unchanged, while a single "$" commit does not fit.
func TestDAGSlotJobsLeaveNoResidue(t *testing.T) {
	params := testParams(t)
	cl := newClientSide(t, params, 790, []int{1, 2})
	srv, err := New(Config{Params: params, SessionQuotaBytes: keySetBytes(cl.rlk, cl.rtks)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	api := NewClient(ts.URL, cl.ctx)
	if err := api.OpenSession("t", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	x := encryptConst(t, cl, params, 0.25)
	before := srv.Stats().Sessions[0]
	ops := []Op{
		{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2}},
		{Kind: OpMul, A: 1, B: 2},
		{Kind: OpRescale, A: 3},
		{Kind: OpAdd, A: 4, B: 4},
	}
	for i := 0; i < 3; i++ {
		res, err := api.Do("t", ops, x)
		if err != nil {
			t.Fatalf("slot job %d: %v", i, err)
		}
		if got := real(cl.encoder.Decode(cl.dec.DecryptNew(res))[0]); got < 0.12 || got > 0.13 {
			t.Fatalf("slot job %d: %g, want 0.125", i, got)
		}
	}
	after := srv.Stats().Sessions[0]
	if after.Registers != before.Registers || after.RegisterBytes != before.RegisterBytes {
		t.Fatalf("slot jobs left %d registers (%d bytes), want %d (%d bytes)",
			after.Registers, after.RegisterBytes, before.Registers, before.RegisterBytes)
	}
	if _, err := api.DoDAG(context.Background(), "t", []string{"$x"}, nil, nil, x); Code(err) != CodeQuota {
		t.Fatalf("session register over a key-sized quota: %v, want CodeQuota", err)
	}
}

// TestDAGFlatEquivalence pins the hoisting refactor's core promise: a
// register-form rotation fan and the slot form's roth sugar produce
// bit-identical ciphertexts, because both lower to the same
// shared-decomposition plan.
func TestDAGFlatEquivalence(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 730, []int{1, 2})
	if err := srv.OpenSession("a", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}

	slots := params.Slots()
	a := make([]complex128, slots)
	for i := range a {
		a[i] = complex(float64(i%9)/9-0.5, 0)
	}
	pt, _ := cl.encoder.Encode(a, params.MaxLevel(), params.Scale)
	ct, err := cl.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}

	// Slot form: roth fans slots 1,2 off the input, then adds them.
	flat, err := submitSlots(context.Background(), srv, "a", []Op{
		{Kind: OpRotateHoisted, A: 0, Bys: []int{1, 2}},
		{Kind: OpAdd, A: 1, B: 2},
	}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatalf("flat job: %v", err)
	}

	// Register form of the same computation, same input ciphertext.
	dagOuts, err := srv.SubmitDAG(context.Background(), "a", []Op{
		dagRot("$x", "$r1", 1),
		dagRot("$x", "$r2", 2),
		dagAdd("$r1", "$r2", "$y"),
	}, []string{"$x"}, []string{"$y"}, []*ckks.Ciphertext{ct})
	if err != nil {
		t.Fatalf("DAG job: %v", err)
	}

	codec := wire.NewCodec(cl.ctx)
	fb, err := codec.MarshalCiphertext(flat)
	if err != nil {
		t.Fatal(err)
	}
	db, err := codec.MarshalCiphertext(dagOuts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, db) {
		t.Fatal("hoisted DAG output differs from the flat roth reference")
	}

	// The same promise at pipeline scale, and what it buys. Each stage fans
	// four rotations off its input, sums them, halves and rescales; a
	// register-less client pays one round trip per op, the DAG form one job
	// in total. The DAG run must be bit-identical while moving ≥5x fewer wire
	// bytes and spending ≥1.5x fewer full rotations plus decompositions —
	// counts, not timings, so both bars hold on any host.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fan := []int{1, 2, 4, 8}
	cl2 := newClientSide(t, params, 731, fan)
	api := NewClient(ts.URL, cl2.ctx)
	for _, name := range []string{"flat", "dag"} {
		if err := api.OpenSession(name, cl2.rlk, cl2.rtks); err != nil {
			t.Fatal(err)
		}
	}
	pt, _ = cl2.encoder.Encode(a, params.MaxLevel(), params.Scale)
	x, err := cl2.enc.EncryptNew(pt)
	if err != nil {
		t.Fatal(err)
	}
	half := []float64{0.5}
	stages := params.MaxLevel() // one rescale per stage
	bg := context.Background()

	api.ResetWireBytes()
	cur := x
	for s := 0; s < stages; s++ {
		var sum *ckks.Ciphertext
		for _, by := range fan {
			r, err := api.Do("flat", []Op{{Kind: OpRotate, A: 0, By: by}}, cur)
			if err != nil {
				t.Fatalf("flat rotate: %v", err)
			}
			if sum == nil {
				sum = r
			} else if sum, err = api.Do("flat", []Op{{Kind: OpAdd, A: 0, B: 1}}, sum, r); err != nil {
				t.Fatalf("flat add: %v", err)
			}
		}
		// pmul rides as a single-op DAG job, which round-trips its operand
		// exactly like the ops around it.
		p, err := api.DoDAG(bg, "flat", []string{"$t"}, []Op{{Kind: OpMulPlain, Ra: "$t", Out: "$p", Vals: half}}, []string{"$p"}, sum)
		if err != nil {
			t.Fatalf("flat pmul: %v", err)
		}
		if cur, err = api.Do("flat", []Op{{Kind: OpRescale, A: 0}}, p[0]); err != nil {
			t.Fatalf("flat rescale: %v", err)
		}
	}
	flatIn, flatOut := api.WireBytes()

	var ops []Op
	in := "$x0"
	for s := 0; s < stages; s++ {
		reg := func(name string) string { return fmt.Sprintf("$s%d%s", s, name) }
		for _, by := range fan {
			ops = append(ops, dagRot(in, reg(fmt.Sprint("r", by)), by))
		}
		out := fmt.Sprintf("$x%d", s+1)
		ops = append(ops,
			dagAdd(reg("r1"), reg("r2"), reg("a")),
			dagAdd(reg("a"), reg("r4"), reg("b")),
			dagAdd(reg("b"), reg("r8"), reg("sum")),
			Op{Kind: OpMulPlain, Ra: reg("sum"), Out: reg("p"), Vals: half},
			Op{Kind: OpRescale, Ra: reg("p"), Out: out},
		)
		in = out
	}
	api.ResetWireBytes()
	outs, err := api.DoDAG(bg, "dag", []string{"$x0"}, ops, []string{in}, x)
	if err != nil {
		t.Fatalf("pipeline DAG job: %v", err)
	}
	dagIn, dagOut := api.WireBytes()

	codec2 := wire.NewCodec(cl2.ctx)
	fb, _ = codec2.MarshalCiphertext(cur)
	db, _ = codec2.MarshalCiphertext(outs[0])
	if !bytes.Equal(fb, db) {
		t.Fatal("pipeline DAG output differs from the per-op round trips")
	}
	want := a
	for s := 0; s < stages; s++ {
		next := make([]complex128, slots)
		for i := range next {
			for _, by := range fan {
				next[i] += want[(i+by)%slots]
			}
			next[i] *= 0.5
		}
		want = next
	}
	if e := maxAbsErr(cl2.encoder.Decode(cl2.dec.DecryptNew(outs[0])), want); e > 1e-2 {
		t.Fatalf("pipeline result error %g", e)
	}

	keySwitches := map[string]int64{}
	for _, ss := range srv.Stats().Sessions {
		keySwitches[ss.Session] = ss.OpMix.FullRot + ss.OpMix.Decompose
	}
	wireRatio := float64(flatIn+flatOut) / float64(dagIn+dagOut)
	ksRatio := float64(keySwitches["flat"]) / float64(keySwitches["dag"])
	t.Logf("%d stages: wire bytes %d flat / %d DAG (%.1fx), full rotations + decompositions %d / %d (%.2fx)",
		stages, flatIn+flatOut, dagIn+dagOut, wireRatio, keySwitches["flat"], keySwitches["dag"], ksRatio)
	if wireRatio < 5 {
		t.Fatalf("DAG pipeline moves only %.1fx fewer wire bytes, want ≥5x", wireRatio)
	}
	if ksRatio < 1.5 {
		t.Fatalf("DAG pipeline spends only %.2fx fewer full rotations + decompositions, want ≥1.5x", ksRatio)
	}
}

// TestDAGCancelMidJob cancels a three-stage chain while its middle node is
// stalled on an armed delay: downstream nodes never execute, but the stage
// that already committed stays committed — partial progress a retry can
// resume from.
func TestDAGCancelMidJob(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 740, []int{1})
	if err := srv.OpenSession("a", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	x := encryptConst(t, cl, params, 0.25)

	defer faultinject.Reset()
	// Skip the first node ($a commits), stall the second for 300ms — the
	// cancel below lands squarely inside that window.
	faultinject.Arm("serve.op.exec", faultinject.Spec{
		Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Skip: 1, Count: 1,
	})
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, err = srv.SubmitDAG(cctx, "a", []Op{
		dagRot("$x", "$a", 1),
		dagRot("$a", "$b", 1),
		dagAdd("$b", "$b", "$c"),
	}, []string{"$x"}, []string{"$c"}, []*ckks.Ciphertext{x})
	if Code(err) != CodeCanceled {
		t.Fatalf("canceled DAG job: %v, want CodeCanceled", err)
	}
	faultinject.Reset()

	// $a committed before the stall and survives the cancellation.
	ctx := context.Background()
	outs, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd("$a", "$a", "$chk")}, nil, []string{"$chk"}, nil)
	if err != nil {
		t.Fatalf("reading committed upstream register: %v", err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))
	if r := real(got[0]); r < 0.49 || r > 0.51 {
		t.Fatalf("$a + $a = %g, want 0.5", r)
	}
	// The stalled node and its dependent never committed.
	for _, reg := range []string{"$b", "$c"} {
		_, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd(reg, reg, "$chk2")}, nil, nil, nil)
		if Code(err) != CodeBadJob {
			t.Fatalf("read of uncommitted %s: %v, want CodeBadJob", reg, err)
		}
	}
}

// TestDAGFaultPropagation injects a one-shot execution fault into the middle
// of a chain: the job fails with a retryable internal error, the faulted
// node's dependents are skipped, and upstream commits are kept.
func TestDAGFaultPropagation(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := newClientSide(t, params, 750, []int{1})
	if err := srv.OpenSession("a", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	x := encryptConst(t, cl, params, 0.25)

	defer faultinject.Reset()
	faultinject.Arm("serve.op.exec", faultinject.Spec{
		Mode: faultinject.ModeError, Skip: 1, Count: 1,
	})
	_, err = srv.SubmitDAG(context.Background(), "a", []Op{
		dagRot("$x", "$a", 1),
		dagRot("$a", "$b", 1),
		dagAdd("$b", "$a", "$c"),
	}, []string{"$x"}, []string{"$c"}, []*ckks.Ciphertext{x})
	if Code(err) != CodeInternal {
		t.Fatalf("faulted DAG job: %v, want CodeInternal", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("injected fault not retryable: %v", err)
	}
	faultinject.Reset()

	ctx := context.Background()
	outs, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd("$a", "$a", "$chk")}, nil, []string{"$chk"}, nil)
	if err != nil {
		t.Fatalf("reading committed upstream register: %v", err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))
	if r := real(got[0]); r < 0.49 || r > 0.51 {
		t.Fatalf("$a + $a = %g, want 0.5", r)
	}
	for _, reg := range []string{"$b", "$c"} {
		_, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd(reg, reg, "$chk2")}, nil, nil, nil)
		if Code(err) != CodeBadJob {
			t.Fatalf("read of skipped %s: %v, want CodeBadJob", reg, err)
		}
	}
}

// TestDAGEvictionSpill evicts a session with live registers from the key
// cache: the registers spill to the durable store and the next DAG job
// rehydrates them transparently — the companion to TestChaosKillRestart for
// the new session state.
func TestDAGEvictionSpill(t *testing.T) {
	params := testParams(t)
	cl1 := newClientSide(t, params, 760, []int{1})
	cl2 := newClientSide(t, params, 770, []int{1})
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
	ctx := context.Background()
	x := encryptConst(t, cl1, params, 0.25)
	if _, err := srv.SubmitDAG(ctx, "a", nil, []string{"$x"}, nil, []*ckks.Ciphertext{x}); err != nil {
		t.Fatal(err)
	}

	spillsBefore := srv.tel.regSpills.Load()
	if err := srv.OpenSession("b", cl2.rlk, cl2.rtks); err != nil {
		t.Fatal(err)
	}
	if got := srv.tel.regSpills.Load(); got != spillsBefore+1 {
		t.Fatalf("register spills %d, want %d after eviction", got, spillsBefore+1)
	}
	for _, ss := range srv.Stats().Sessions {
		if ss.Session == "a" {
			if ss.Resident {
				t.Fatal("session a still resident after opening b")
			}
			if ss.Registers != 0 {
				t.Fatalf("evicted session holds %d resident registers, want 0", ss.Registers)
			}
		}
	}

	// The next DAG job reloads $x from disk before its first stage runs.
	reloadsBefore := srv.tel.regReloads.Load()
	outs, err := srv.SubmitDAG(ctx, "a", []Op{dagAdd("$x", "$x", "$y")}, nil, []string{"$y"}, nil)
	if err != nil {
		t.Fatalf("DAG job on evicted session: %v", err)
	}
	got := cl1.encoder.Decode(cl1.dec.DecryptNew(outs[0]))
	if r := real(got[0]); r < 0.49 || r > 0.51 {
		t.Fatalf("rehydrated $x + $x = %g, want 0.5", r)
	}
	if got := srv.tel.regReloads.Load(); got != reloadsBefore+1 {
		t.Fatalf("register reloads %d, want %d", got, reloadsBefore+1)
	}
	for _, ss := range srv.Stats().Sessions {
		if ss.Session == "a" && ss.Registers != 2 {
			t.Fatalf("session a holds %d registers after rehydration, want 2", ss.Registers)
		}
	}
}

// TestDAGServerRestart drains a server (spilling registers) and boots a new
// one on the same store: the registers survive the restart and are readable
// by the first DAG job of the new process.
func TestDAGServerRestart(t *testing.T) {
	params := testParams(t)
	dir := t.TempDir()
	cl := newClientSide(t, params, 780, []int{1})

	srv1, err := New(Config{Params: params, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.OpenSession("durable", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := encryptConst(t, cl, params, 0.25)
	outs, err := srv1.SubmitDAG(ctx, "durable",
		[]Op{dagAdd("$x", "$x", "$y")}, []string{"$x"}, []string{"$y"},
		[]*ckks.Ciphertext{x})
	if err != nil {
		t.Fatal(err)
	}
	srv1.ctx.PutCiphertext(outs[0])

	dctx, dcancel := context.WithTimeout(ctx, 10*time.Second)
	defer dcancel()
	if err := srv1.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv1.tel.regSpills.Load(); got != 2 {
		t.Fatalf("drain spilled %d registers, want 2", got)
	}
	srv1.Close()

	srv2, err := New(Config{Params: params, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	outs, err = srv2.SubmitDAG(ctx, "durable",
		[]Op{dagAdd("$x", "$y", "$z")}, nil, []string{"$z"}, nil)
	if err != nil {
		t.Fatalf("DAG job after restart: %v", err)
	}
	got := cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))
	if r := real(got[0]); r < 0.74 || r > 0.76 {
		t.Fatalf("$x + $y after restart = %g, want 0.75", r)
	}
}

// FuzzCompileRegisters feeds compileRegisters random op graphs over a small
// pool of "$" and "%" names, input bindings and outputs. It must never
// panic and every error must be a CodeBadJob; a dependency cycle or a read
// of a "%" name the job neither binds nor writes must always be rejected;
// and every accepted program's stages must respect its dependencies.
func FuzzCompileRegisters(f *testing.F) {
	f.Add([]byte{1, 3, 1, 5, 3, 3, 4, 2, 0, 4, 5, 1, 4}) // %a → rot → %b → add → %c
	f.Add([]byte{0, 0, 4, 3, 4, 0, 4, 4, 3, 0})          // %a ↔ %b cycle
	f.Add([]byte{0, 1, 0, 3, 0, 1, 2, 7, 1, 2, 4})       // session reads and writes
	names := []string{"$a", "$b", "$c", "%a", "%b", "%c", "bad", ""}
	kinds := []OpKind{OpAdd, OpSub, OpMul, OpRotate, OpConjugate, OpRescale, OpBootstrap, OpMulPlain, OpRotateHoisted, "nope"}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		name := func() string { return names[next()%len(names)] }
		var inputs, outputs []string
		for n := next() % 4; n > 0; n-- {
			inputs = append(inputs, name())
		}
		for n := next() % 4; n > 0; n-- {
			outputs = append(outputs, name())
		}
		var ops []Op
		for len(data) > 0 {
			op := Op{Kind: kinds[next()%len(kinds)], Ra: name(), Out: name()}
			flags := next()
			if flags&1 != 0 {
				op.Rb = name()
			}
			if flags&2 != 0 {
				op.By = 1
			}
			if flags&4 != 0 {
				op.Vals = []float64{1}
			}
			if flags&8 != 0 {
				op.A = 1
			}
			ops = append(ops, op)
		}

		p, err := compileRegisters(ops, inputs, outputs, 16)

		// Oracle, independent of the compiler: a "%" read with no binding and
		// no writer, or a cycle through the writers, must be rejected.
		bound := map[string]bool{}
		for _, in := range inputs {
			bound[in] = true
		}
		writer := map[string]int{}
		for i, op := range ops {
			if _, dup := writer[op.Out]; !dup {
				writer[op.Out] = i
			}
		}
		unbound := func(n string) bool {
			_, w := writer[n]
			return strings.HasPrefix(n, "%") && !bound[n] && !w
		}
		mustReject := false
		for _, o := range outputs {
			mustReject = mustReject || unbound(o)
		}
		state := make([]int, len(ops)) // 0 unvisited, 1 on the DFS stack, 2 done
		var cyclic func(i int) bool
		cyclic = func(i int) bool {
			if state[i] != 0 {
				return state[i] == 1
			}
			state[i] = 1
			for _, r := range []string{ops[i].Ra, ops[i].Rb} {
				if w, ok := writer[r]; ok && r != "" && !bound[r] && cyclic(w) {
					return true
				}
			}
			state[i] = 2
			return false
		}
		for i, op := range ops {
			mustReject = mustReject || unbound(op.Ra) || (op.Rb != "" && unbound(op.Rb)) || cyclic(i)
		}

		if err != nil {
			if Code(err) != CodeBadJob {
				t.Fatalf("error with code %q, want %q: %v", Code(err), CodeBadJob, err)
			}
			return
		}
		if mustReject {
			t.Fatalf("accepted a cyclic or dangling program: ops %+v inputs %v outputs %v", ops, inputs, outputs)
		}
		stageOf := make([]int, len(p.nodes))
		for i := range stageOf {
			stageOf[i] = -1
		}
		for k, stage := range p.stages {
			for _, i := range stage {
				if stageOf[i] != -1 {
					t.Fatalf("node %d in stages %d and %d", i, stageOf[i], k)
				}
				stageOf[i] = k
			}
		}
		for i, n := range p.nodes {
			if stageOf[i] == -1 {
				t.Fatalf("node %d in no stage", i)
			}
			for _, o := range []operand{n.a, n.b} {
				if o.node >= 0 && stageOf[o.node] >= stageOf[i] {
					t.Fatalf("node %d (stage %d) reads node %d (stage %d)", i, stageOf[i], o.node, stageOf[o.node])
				}
			}
		}
		for _, r := range p.reads {
			if jobLocal(r) {
				t.Fatalf("job-local %q resolved from the session", r)
			}
		}
	})
}
