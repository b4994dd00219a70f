package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/telemetry"
)

// job is one queued unit of work: a program over input ciphertexts bound to
// a session, plus the submitter's context.
type job struct {
	ctx      context.Context
	sess     *session
	prog     *program
	inputs   []*ckks.Ciphertext
	enqueued time.Time
	done     chan jobResult

	// cancelled is set by the submitter when its context expires after the
	// job was claimed into a batch; the batch worker checks it before
	// executing and skips the job entirely.
	cancelled atomic.Bool
	// delivered guards the one-shot completion bookkeeping (stats, metrics,
	// the done send), so the normal path, the cancel path and the
	// batch-boundary panic recovery cannot double-complete a job.
	delivered atomic.Bool

	// tr is the job's trace (inert zero value unless the server traces
	// jobs); root spans submit-to-completion and parents every op span,
	// queue spans submit-to-dispatch.
	tr    telemetry.Trace
	root  telemetry.Span
	queue telemetry.Span
}

type jobResult struct {
	cts []*ckks.Ciphertext
	err error
}

// finishJob is the single completion point of every job: it records
// latency, per-session statistics and result counters exactly once, then
// delivers on the job's buffered done channel. cts is the job's outputs
// (possibly empty: a pure-upload job requests none). executed reports whether the job actually ran ops
// (cancelled/skipped jobs keep their latency out of the percentile
// reservoirs' op accounting only via ops=0).
func (s *Server) finishJob(j *job, cts []*ckks.Ciphertext, err error, executed bool) {
	if !j.delivered.CompareAndSwap(false, true) {
		// Someone already completed this job (e.g. the cancel path raced the
		// batch worker). Produced results must not leak out of the pool.
		for _, ct := range cts {
			s.ctx.PutCiphertext(ct)
		}
		return
	}
	lat := time.Since(j.enqueued)
	if ts := s.tel; ts != nil {
		ts.jobLatency.Observe(lat.Seconds())
		switch {
		case err == nil:
			ts.jobsOK.Add(1)
		case Code(err) == CodeCanceled || Code(err) == CodeDeadline:
			ts.jobsCancelled.Add(1)
		default:
			ts.jobsErr.Add(1)
		}
	}
	if j.tr.Active() {
		j.root.End()
		if err == nil && s.cfg.SlowJob > 0 && lat >= s.cfg.SlowJob {
			s.tel.retainDump(j, lat, "slow", nil)
		}
	}
	ops := 0
	if executed && err == nil {
		ops = len(j.prog.nodes)
	}
	j.sess.stats.completed(lat, ops, err)
	j.done <- jobResult{cts: cts, err: err}
}

// dispatch is the scheduler loop. It repeatedly forms a batch — up to
// BatchSize pending jobs of one session, taken in queue order — and executes
// the batch with one goroutine per job, so the batch's ciphertexts are
// simultaneously in flight across the context's limb-parallel engine. Jobs
// are compatible when they target the same session: they share the evaluator
// and key material, so batching them keeps the key-switching working set
// hot, exactly the cross-ciphertext batching the paper credits for
// accelerator throughput.
//
// Up to Parallel batches execute concurrently (a semaphore bounds them), so
// distinct tenants overlap on the context's engine instead of taking turns.
//
// A session whose pending batch is smaller than BatchSize lingers for up to
// BatchWindow (a per-session deadline, see takeBatchLocked) to let
// concurrent submitters fill it; the dispatcher sleeps on the condition
// variable with a timer wakeup armed for the earliest deadline, so new
// submissions — for the lingering session or any other — are examined
// immediately.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	sem := make(chan struct{}, s.cfg.Parallel)
	defer s.batches.Wait()
	for {
		s.mu.Lock()
		var batch []*job
		for {
			if s.closed {
				pending := s.pending
				s.pending = nil
				s.mu.Unlock()
				for _, j := range pending {
					s.finishJob(j, nil, errServerClosed, false)
				}
				return
			}
			if len(s.pending) > 0 {
				var wait time.Duration
				if batch, wait = s.takeBatchLocked(time.Now()); batch != nil {
					break
				}
				s.armWakeupLocked(wait)
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		sem <- struct{}{}
		s.batches.Add(1)
		go func(batch []*job) {
			defer s.batches.Done()
			defer func() { <-sem }()
			s.runBatch(batch)
		}(batch)
	}
}

// armWakeupLocked schedules a dispatcher broadcast wait from now (caller
// holds s.mu), unless an earlier wakeup is already armed. A wakeup that
// turns out stale is harmless: the dispatcher re-evaluates the queue on
// every pass.
func (s *Server) armWakeupLocked(wait time.Duration) {
	at := time.Now().Add(wait)
	if !s.wakeAt.IsZero() && !s.wakeAt.After(at) {
		return
	}
	s.wakeAt = at
	time.AfterFunc(wait, func() {
		s.mu.Lock()
		s.wakeAt = time.Time{}
		s.cond.Broadcast()
		s.mu.Unlock()
	})
}

// takeBatchLocked forms the next dispatchable batch from the pending queue
// (caller holds s.mu). Sessions are considered in order of their oldest
// pending job; a session's batch is dispatchable when it is full (BatchSize
// jobs), when lingering is disabled, or when the session's linger deadline —
// started the first time its undersized batch is seen — has passed. The
// linger is per session, so one tenant's half-full batch waiting out its
// window never delays a different tenant's ready batch queued behind it.
//
// When no session is dispatchable yet, takeBatchLocked returns nil and the
// time until the earliest linger deadline, for the caller to arm a wakeup.
func (s *Server) takeBatchLocked(now time.Time) ([]*job, time.Duration) {
	counts := make(map[*session]int, len(s.linger)+1)
	order := make([]*session, 0, len(s.linger)+1)
	for _, j := range s.pending {
		if counts[j.sess] == 0 {
			order = append(order, j.sess)
		}
		counts[j.sess]++
	}
	// Drop linger deadlines of sessions with nothing queued anymore, so the
	// map cannot accumulate entries for departed tenants.
	for sess := range s.linger {
		if counts[sess] == 0 {
			delete(s.linger, sess)
		}
	}
	var take *session
	wait := time.Duration(-1)
	for _, sess := range order {
		if counts[sess] >= s.cfg.BatchSize || s.cfg.BatchWindow <= 0 {
			take = sess
			break
		}
		dl, lingering := s.linger[sess]
		if !lingering {
			dl = now.Add(s.cfg.BatchWindow)
			s.linger[sess] = dl
		}
		if !now.Before(dl) {
			take = sess
			break
		}
		if w := dl.Sub(now); wait < 0 || w < wait {
			wait = w
		}
	}
	if take == nil {
		return nil, wait
	}
	// How long the winning session's batch actually lingered: its deadline
	// was set window-length ahead of the first look, so the elapsed linger is
	// the window minus what remains. A batch dispatched on first sight (full,
	// or lingering disabled) lingered for zero.
	lingered := time.Duration(0)
	if dl, ok := s.linger[take]; ok {
		if lingered = s.cfg.BatchWindow - dl.Sub(now); lingered < 0 {
			lingered = 0
		}
	}
	delete(s.linger, take)
	size := counts[take]
	if size > s.cfg.BatchSize {
		size = s.cfg.BatchSize
	}
	batch := make([]*job, 0, size)
	rest := s.pending[:0]
	for _, j := range s.pending {
		if j.sess == take && len(batch) < size {
			batch = append(batch, j)
		} else {
			rest = append(rest, j)
		}
	}
	// Zero the tail so released jobs do not leak through the backing array.
	for i := len(rest); i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.pending = rest
	take.stats.batchFormed(len(batch))
	if ts := s.tel; ts != nil {
		ts.batchSize.Observe(float64(len(batch)))
		ts.lingerWait.Observe(lingered.Seconds())
	}
	return batch, 0
}

// runBatch executes every job of a batch concurrently and replies through
// finishJob. A traced job runs on a job-private evaluator copy carrying the
// trace (evaluator spans nest under the job's op spans); an untraced job
// runs on the session's shared evaluator, allocating nothing.
//
// runBatch is also a fault boundary: the session's keys are rehydrated here
// when cold (restart or eviction), the "serve.sched.dispatch" failpoint
// fires here, and a panic anywhere in the batch machinery (as opposed to
// inside one job's ops, which job.run recovers itself) fails the batch's
// jobs cleanly instead of killing the daemon.
func (s *Server) runBatch(batch []*job) {
	defer func() {
		if r := recover(); r != nil {
			err := errf(CodeInternal, "batch dispatch panicked: %v", r)
			for _, j := range batch {
				s.finishJob(j, nil, err, false)
			}
		}
	}()
	if ts := s.tel; ts != nil {
		ts.batchesRun.Add(1)
		ts.batchesInflight.Add(1)
		defer ts.batchesInflight.Add(-1)
	}
	if err := faultinject.Eval("serve.sched.dispatch"); err != nil {
		for _, j := range batch {
			s.finishJob(j, nil, injectedFaultError(err), false)
		}
		return
	}
	// All jobs of a batch share a session; hydrate its keys once.
	ev, bt, err := s.sessionRuntime(batch[0].sess)
	if err != nil {
		for _, j := range batch {
			s.finishJob(j, nil, err, false)
		}
		return
	}
	// The batch's jobs share one hoist cache: rotation fans over the same
	// resident register reuse a single key-switch decomposition across jobs.
	hc := newHoistCache()
	defer hc.release()
	var wg sync.WaitGroup
	for _, j := range batch {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			// A job cancelled after it was claimed into this batch (or whose
			// deadline expired while queued) never executes.
			if j.cancelled.Load() || j.ctx.Err() != nil {
				s.finishJob(j, nil, contextError(ctxErrOrCanceled(j.ctx)), false)
				return
			}
			jev := ev
			if j.tr.Active() {
				j.queue.End()
				jev = jev.WithTrace(j.tr, j.root.ID())
			}
			cts, err := j.run(s, jev, bt, hc)
			s.finishJob(j, cts, err, true)
		}(j)
	}
	wg.Wait()
}

// ctxErrOrCanceled returns the context's error, or context.Canceled when
// the job was flagged cancelled before its context reported one.
func ctxErrOrCanceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
