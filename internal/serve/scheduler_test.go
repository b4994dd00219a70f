package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
)

// occupySlot holds the only execution slot of a Parallel: 1 server for
// hold: it opens session "blocker", arms a one-shot delay on the
// serve.op.exec failpoint and submits a one-op job that sleeps there. It
// returns once that job is executing, so jobs submitted next stay queued.
// done delivers the blocker's own result. flush waits for it, then runs one
// more job on the blocker's session: with one slot and FIFO dispatch, every
// job queued before that one has left the server when flush returns. The
// failpoints are reset when the test ends.
func occupySlot(t *testing.T, srv *Server, params ckks.Parameters, hold time.Duration) (done <-chan error, flush func()) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	cl := newClientSide(t, params, 900, nil)
	if err := srv.OpenSession("blocker", cl.rlk, cl.rtks); err != nil {
		t.Fatal(err)
	}
	in := encryptConst(t, cl, params, 0.5)
	run := func() error {
		// A deadline of its own keeps Config.DefaultJobTimeout off the job.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		ct, err := submitSlots(ctx, srv, "blocker", []Op{{Kind: OpAdd, A: 0, B: 0}}, []*ckks.Ciphertext{in})
		if ct != nil {
			srv.Context().PutCiphertext(ct)
		}
		return err
	}
	faultinject.Arm("serve.op.exec", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: hold, Count: 1})
	ch := make(chan error, 1)
	go func() { ch <- run() }()
	deadline := time.Now().Add(10 * time.Second)
	for faultinject.Hits("serve.op.exec") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker job never started executing")
		}
		time.Sleep(time.Millisecond)
	}
	return ch, func() {
		t.Helper()
		if err := <-ch; err != nil {
			t.Fatalf("blocker job: %v", err)
		}
		if err := run(); err != nil {
			t.Fatalf("flush job: %v", err)
		}
	}
}

// waitQueued polls until n jobs wait in the server's queue.
func waitQueued(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		got := len(srv.pending)
		srv.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// statsOf returns the /v1/stats snapshot of one session.
func statsOf(t *testing.T, srv *Server, name string) SessionStats {
	t.Helper()
	for _, ss := range srv.Stats().Sessions {
		if ss.Session == name {
			return ss
		}
	}
	t.Fatalf("no session %q in stats", name)
	return SessionStats{}
}

// TestDispatchFIFOAndParallelCap submits jobs of two sessions, alternating,
// to a server with two slots while every op sleeps in a delay failpoint,
// then drains it. While the jobs run, a monitor checks that the queue only
// ever loses its head (jobs start in submit order, whatever their session)
// and that no more than two jobs are between dispatch and completion. Drain
// must wait for all of them and fail none.
func TestDispatchFIFOAndParallelCap(t *testing.T) {
	params := testParams(t)
	const parallel, jobs = 2, 6
	const delay = 100 * time.Millisecond
	srv, err := New(Config{Params: params, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clients := []*clientSide{newClientSide(t, params, 910, nil), newClientSide(t, params, 920, nil)}
	names := []string{"a", "b"}
	for i, cl := range clients {
		if err := srv.OpenSession(names[i], cl.rlk, cl.rtks); err != nil {
			t.Fatal(err)
		}
	}
	// Job k's input identifies it in the queue.
	inputs := make([]*ckks.Ciphertext, jobs)
	order := make(map[*ckks.Ciphertext]int, jobs)
	for k := range inputs {
		inputs[k] = encryptConst(t, clients[k%2], params, 0.25)
		order[inputs[k]] = k
	}

	t.Cleanup(faultinject.Reset)
	faultinject.Arm("serve.op.exec", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: delay})

	// Submit one job at a time, each once the server has counted the one
	// before, so the submit order is the index order.
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	queued := func() (n int) {
		for _, name := range names {
			ss := statsOf(t, srv, name)
			n += ss.QueueDepth + int(ss.Jobs)
		}
		return n
	}
	start := time.Now()
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ct, err := submitSlots(context.Background(), srv, names[k%2], []Op{{Kind: OpAdd, A: 0, B: 0}}, inputs[k:k+1])
			if ct != nil {
				srv.Context().PutCiphertext(ct)
			}
			errs[k] = err
		}(k)
		for queued() < k+1 {
			time.Sleep(100 * time.Microsecond)
		}
	}

	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	maxRunning := 0
	go func() {
		defer close(monitorDone)
		for {
			// The queue is read before the completions, so a job that
			// finishes in between lowers the count, never raises it.
			srv.mu.Lock()
			pending := make([]int, len(srv.pending))
			for i, j := range srv.pending {
				pending[i] = order[j.inputs[0]]
			}
			srv.mu.Unlock()
			completed := 0
			for _, ss := range srv.Stats().Sessions {
				completed += int(ss.Jobs)
			}
			popped := jobs - len(pending)
			for i, k := range pending {
				if k != popped+i {
					t.Errorf("queue %v after %d dispatches: jobs did not start in submit order", pending, popped)
					return
				}
			}
			if running := popped - completed; running > maxRunning {
				maxRunning = running
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	elapsed := time.Since(start)
	close(stop)
	<-monitorDone
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
	}
	for _, name := range names {
		if ss := statsOf(t, srv, name); ss.Jobs != jobs/2 || ss.Errors != 0 || ss.QueueDepth != 0 {
			t.Fatalf("session %s after drain: jobs=%d errors=%d depth=%d, want %d/0/0", name, ss.Jobs, ss.Errors, ss.QueueDepth, jobs/2)
		}
	}
	if maxRunning != parallel {
		t.Fatalf("at most %d jobs ran at once, want exactly Parallel=%d", maxRunning, parallel)
	}
	// Each job sleeps delay inside its slot, so two slots need at least
	// jobs/2 delays end to end.
	if floor := jobs / parallel * delay; elapsed < floor {
		t.Fatalf("%d jobs drained in %v, under the %v two slots allow", jobs, elapsed, floor)
	}
}
