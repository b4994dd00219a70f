package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"bts/internal/ckks"
)

// TestLingerIsPerSession is the regression test for the scheduler's linger
// scope: with the old server-wide linger flag, session A's half-full batch
// at the head of the queue made the dispatcher sleep a full BatchWindow
// before even looking at session B's ready batch queued behind it. The
// linger deadline is now per head-session, so B's full batch must dispatch
// immediately while A's batch is still waiting out its window.
func TestLingerIsPerSession(t *testing.T) {
	params := testParams(t)
	const window = 1200 * time.Millisecond
	srv, err := New(Config{
		Params:      params,
		BatchSize:   4,
		BatchWindow: window,
		Parallel:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clA := newClientSide(t, params, 400, []int{1})
	clB := newClientSide(t, params, 500, []int{1})
	if err := srv.OpenSession("tenant-a", clA.rlk, clA.rtks); err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenSession("tenant-b", clB.rlk, clB.rtks); err != nil {
		t.Fatal(err)
	}

	encrypt := func(cl *clientSide) *ckks.Ciphertext {
		pt, _ := cl.encoder.Encode([]complex128{0.5}, params.MaxLevel(), params.Scale)
		ct, err := cl.enc.EncryptNew(pt)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	ops := []Op{{Kind: OpAdd, A: 0, B: 0}}

	// One job for A: undersized (1 < BatchSize), so A's batch lingers.
	aDone := make(chan error, 1)
	go func() {
		ct, err := submitSlots(context.Background(), srv, "tenant-a", ops, []*ckks.Ciphertext{encrypt(clA)})
		if ct != nil {
			srv.Context().PutCiphertext(ct)
		}
		aDone <- err
	}()

	// Give the dispatcher time to see A's lone job and start its linger.
	deadlineStart := time.Now()
	time.Sleep(50 * time.Millisecond)

	// A full batch for B arrives behind A's lingering job. The inputs are
	// encrypted here, not in the goroutines: an Encryptor's RNG is not
	// safe for concurrent use.
	var wg sync.WaitGroup
	bErrs := make([]error, 4)
	for f := 0; f < 4; f++ {
		wg.Add(1)
		in := encrypt(clB)
		go func(f int) {
			defer wg.Done()
			ct, err := submitSlots(context.Background(), srv, "tenant-b", ops, []*ckks.Ciphertext{in})
			if ct != nil {
				srv.Context().PutCiphertext(ct)
			}
			bErrs[f] = err
		}(f)
	}
	wg.Wait()
	bElapsed := time.Since(deadlineStart)
	for f, err := range bErrs {
		if err != nil {
			t.Fatalf("tenant-b job %d: %v", f, err)
		}
	}
	// The old server-wide linger made B wait out A's full window; the
	// per-session linger must dispatch B's ready batch right away. Half the
	// window leaves a wide margin over scheduling and encryption cost.
	if bElapsed >= window/2 {
		t.Fatalf("tenant-b's full batch took %v behind a lingering tenant-a batch (window %v): linger is not per-session", bElapsed, window)
	}

	// A's job must still complete (after its linger expires at the latest).
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("tenant-a job: %v", err)
		}
	case <-time.After(5 * window):
		t.Fatal("tenant-a's lingering job never completed")
	}
}
