package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
