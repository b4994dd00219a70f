package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bts/internal/ckks"
)

// TestOpenSessionEscapesName opens a session whose name holds every character
// with a meaning in a query string — space, '+', '&' and '#' — and runs a DAG
// job against it by that name: the session the server opened must be the one
// the job addresses.
func TestOpenSessionEscapesName(t *testing.T) {
	const name = "team a+b&c#1"
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl := newClientSide(t, params, 730, []int{1})
	api := NewClient(ts.URL, cl.ctx)
	if err := api.OpenSession(name, cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Sessions; len(got) != 1 || got[0].Session != name {
		t.Fatalf("server opened %+v, want one session named %q", got, name)
	}
	x := encryptConst(t, cl, params, 0.25)
	outs, err := api.DoDAG(context.Background(), name, []string{"$x"}, []Op{dagAdd("$x", "$x", "$y")}, []string{"$y"}, x)
	if err != nil {
		t.Fatalf("DAG job on session %q: %v", name, err)
	}
	if got := real(cl.encoder.Decode(cl.dec.DecryptNew(outs[0]))[0]); got < 0.49 || got > 0.51 {
		t.Fatalf("DAG result %g, want 0.5", got)
	}
}

// TestFetchParamsHonorsDeadline points FetchParams at a daemon that accepts
// the request and never answers: the caller's deadline must end the wait.
func TestFetchParamsHonorsDeadline(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := FetchParams(ctx, ts.URL)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("FetchParams returned %v, want a deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FetchParams ignored its deadline")
	}
}

// TestFetchParamsRefusesWireVersion points FetchParams at a stub daemon that
// advertises wire version 99: the mismatch must surface as a terminal
// CodeInvalid error before any key is uploaded. The real daemon must
// advertise this build's version.
func TestFetchParamsRefusesWireVersion(t *testing.T) {
	params := testParams(t)
	srv, err := New(Config{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	live := httptest.NewServer(srv.Handler())
	defer live.Close()
	if _, _, err := FetchParams(context.Background(), live.URL); err != nil {
		t.Fatalf("FetchParams against this build's daemon: %v", err)
	}

	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ParamsResponse{
			LogN: params.LogN, Q: params.Q, P: params.P, Dnum: params.Dnum,
			Scale: params.Scale, H: params.H, Sigma: params.Sigma, WireVersion: 99,
		})
	}))
	defer stub.Close()
	_, _, err = FetchParams(context.Background(), stub.URL)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeInvalid || se.Retryable {
		t.Fatalf("FetchParams against a version-99 daemon returned %v, want a terminal %s error", err, CodeInvalid)
	}
}

// TestDAGJobBodyExactSize pins the job body's sizing: the slice DoDAG
// uploads is allocated once, at exactly its final length, and carries each
// input's envelope as MarshalCiphertext encodes it, whatever the inputs'
// levels. A framing constant that drifted from the wire format would show
// here as a length that misses the capacity.
func TestDAGJobBodyExactSize(t *testing.T) {
	params := testParams(t)
	cl := newClientSide(t, params, 740, nil)
	api := NewClient("http://127.0.0.1:0", cl.ctx)
	var inputs []*ckks.Ciphertext
	for _, level := range []int{params.MaxLevel(), 0} {
		pt, err := cl.encoder.Encode([]complex128{0.5}, level, params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := cl.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, ct)
	}
	jr := JobRequest{Session: "s", Ops: []Op{dagAdd("$a", "$b", "$c")}, Inputs: []string{"$a", "$b"}, Outputs: []string{"$c"}}
	body, err := api.jobBody(jr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != cap(body) {
		t.Fatalf("job body of %d bytes in a slice of capacity %d", len(body), cap(body))
	}
	header, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{byte(len(header)), byte(len(header) >> 8), byte(len(header) >> 16), byte(len(header) >> 24)}, header...)
	for _, ct := range inputs {
		env, err := api.codec.MarshalCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, env...)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("job body differs from the header followed by each input's envelope")
	}
}
