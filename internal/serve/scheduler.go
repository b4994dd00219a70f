package serve

import (
	"context"
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

	// delivered guards the one-shot completion bookkeeping (stats, metrics,
	// the done send), so the normal path, the cancel path and runJob's
	// panic recovery cannot double-complete a job.
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
		// Someone already completed this job (e.g. the cancel path raced
		// runJob). Produced results must not leak out of the pool.
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

// dispatch is the scheduler loop. It pops the pending queue in FIFO order
// and starts each job on its own goroutine as soon as one of Config.Parallel
// execution slots is free. The parallelism inside one job's ops comes from
// the context's limb-parallel engine; the slots let distinct jobs — of one
// tenant or of several — overlap on it. A slot is taken before a job is
// popped and the job is counted in s.running under s.mu, so Drain never sees
// an empty queue while a popped job has yet to start.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	sem := make(chan struct{}, s.cfg.Parallel)
	defer s.running.Wait()
	for {
		sem <- struct{}{}
		s.mu.Lock()
		for !s.closed && len(s.pending) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			pending := s.pending
			s.pending = nil
			s.mu.Unlock()
			for _, j := range pending {
				s.finishJob(j, nil, errServerClosed, false)
			}
			return
		}
		j := s.pending[0]
		s.pending[0] = nil // the backing array must not keep the job alive
		s.pending = s.pending[1:]
		s.running.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.running.Done()
			defer func() { <-sem }()
			s.runJob(j)
		}()
	}
}

// runJob executes one job and replies through finishJob. A traced job runs
// on a job-private evaluator copy carrying the trace (evaluator spans nest
// under the job's op spans); an untraced job runs on the session's shared
// evaluator.
//
// runJob is also a fault boundary: the session's keys are rehydrated here
// when cold (restart or eviction), the "serve.sched.dispatch" failpoint
// fires here, and a panic in the dispatch machinery (as opposed to inside
// the job's ops, which job.run recovers itself) fails the job cleanly
// instead of killing the daemon.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.finishJob(j, nil, errf(CodeInternal, "job dispatch panicked: %v", r), false)
		}
	}()
	// A job whose context ended after it left the queue never executes.
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, nil, contextError(err), false)
		return
	}
	if err := faultinject.Eval("serve.sched.dispatch"); err != nil {
		s.finishJob(j, nil, injectedFaultError(err), false)
		return
	}
	ev, bt, err := s.sessionRuntime(j.sess)
	if err != nil {
		s.finishJob(j, nil, err, false)
		return
	}
	if j.tr.Active() {
		j.queue.End()
		ev = ev.WithTrace(j.tr, j.root.ID())
	}
	cts, err := j.run(s, ev, bt)
	s.finishJob(j, cts, err, true)
}
