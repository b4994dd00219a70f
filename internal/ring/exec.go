package ring

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bts/internal/telemetry"
)

// Engine is the two-dimensional execution engine of the software
// reproduction: a fixed pool of worker goroutines that fans polynomial
// kernels out across cores. It is the CPU analogue of the BTS PE grid, which
// distributes *both* limbs and coefficients over lanes (Section 4.1) so the
// grid stays busy regardless of a ciphertext's remaining level.
//
// Kernels dispatch through two primitives:
//
//   - Run(n, fn): one independent task per RNS limb (the original 1-D
//     limb-parallel form);
//   - RunBlocks(rows, n, fn): limb × coefficient-block sharding — when fewer
//     limbs than workers are active, each residue row is additionally split
//     into contiguous coefficient blocks so rows×blocks ≈ workers, keeping
//     the whole pool busy on low-level ciphertexts (bootstrapping's tail).
//
// An Engine with fewer than two workers executes everything inline on the
// calling goroutine (the serial fallback); the zero value of *Engine (nil) is
// likewise serial. Engines are safe for concurrent use and may be shared by
// several Rings — each ckks Context owns one Engine, shared by its q- and
// p-chain rings and all of its BasisExtenders. An engine has no Close: its
// workers stop once nothing references it any more (see NewEngine).
type Engine struct {
	workers   int
	blockSize int // minimum coefficient-block width; 0 = DefaultBlockSize
	jobs      chan func()
	start     sync.Once // starts the workers on the first parallel Run

	// stats, when non-nil, receives dispatch counters (runs, tasks, steals,
	// shard shapes). Every hook is behind this nil check, so a detached
	// engine pays one predictable branch per dispatch — the compiled-out-
	// cheap discipline that keeps kernel benchmarks honest.
	stats *telemetry.EngineStats
}

// SetStats attaches a dispatch-counter sink to the engine (nil detaches).
// Like SetBlockSize it must not be called concurrently with dispatch; attach
// before serving traffic. The caller keeps ownership of st — typically a
// serving process registers it with its metrics registry.
func (e *Engine) SetStats(st *telemetry.EngineStats) {
	if e == nil {
		return
	}
	e.stats = st
}

// DefaultBlockSize is the minimum width (in coefficients) of a block handed
// out by RunBlocks. Blocks narrower than this lose more to dispatch overhead
// and cache-line sharing than they gain in parallelism, so rows are never
// split finer; SetBlockSize overrides the floor (tests sweep odd widths, and
// benchmarks disable sharding entirely by setting it to N).
const DefaultBlockSize = 1024

// NewEngine returns an engine with the given worker count. workers <= 1
// yields a serial engine with no goroutines. A parallel engine starts its
// workers on its first parallel Run, so an engine replaced before it ran
// anything (a context's default one, swapped by SetWorkers) never starts a
// goroutine. The workers stop when the engine becomes unreachable: they
// hold only the jobs channel, never the engine, and a cleanup closes that
// channel after the collector frees the engine. No send can follow, since a
// sender needs the engine.
func NewEngine(workers int) *Engine {
	e := &Engine{workers: workers}
	if workers > 1 {
		// The jobs channel is buffered: a dispatch *offers* helper tasks to
		// the pool without ever blocking (offers beyond the buffer are
		// dropped), and the calling goroutine always works through the task
		// counter itself, so nested dispatches cannot deadlock the pool.
		e.jobs = make(chan func(), workers)
		runtime.AddCleanup(e, func(jobs chan func()) { close(jobs) }, e.jobs)
	}
	return e
}

// startWorkers starts the engine's worker goroutines.
func (e *Engine) startWorkers() {
	for i := 0; i < e.workers; i++ {
		go work(e.jobs)
	}
}

// work runs the helper tasks offered on jobs until the channel is closed.
func work(jobs chan func()) {
	for f := range jobs {
		f()
	}
}

// Workers reports the engine's worker count (0 for a nil/serial engine).
func (e *Engine) Workers() int {
	if e == nil || e.workers <= 1 {
		return 0
	}
	return e.workers
}

// Run executes fn(0) .. fn(n-1), fanning the calls out across the worker
// pool. The calls must be independent (every ring kernel dispatched this way
// touches disjoint output words per index, so results are bit-identical to
// serial execution regardless of schedule). Run returns when all n calls have
// completed. With a serial engine it is a plain loop.
//
// Work distribution goes through a shared index counter rather than one
// channel send per task: the caller and every helper it recruits pull the
// next unclaimed index until the counter is exhausted. A worker that is busy
// at dispatch time but frees up mid-loop still steals the remaining indices
// the moment it picks a pending helper off the queue; and because the caller
// keeps re-offering helpers between its own tasks until the full complement
// is queued, a momentarily full queue (e.g. stale helpers left by earlier
// Runs on a shared engine) only delays recruitment — it cannot degrade the
// whole Run to the caller. Helper recruitment is always a non-blocking offer
// into the buffered jobs channel and the caller always drains the counter
// itself, so a nested Run issued from inside a task can never deadlock the
// pool: every claimed index is being executed by a live goroutine, and the
// nesting only ever waits downward.
func (e *Engine) Run(n int, fn func(i int)) {
	if e == nil || e.workers <= 1 || n <= 1 {
		if e != nil && e.stats != nil && n > 0 {
			e.stats.InlineRuns.Add(1)
			e.stats.Tasks.Add(int64(n))
		}
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	e.start.Do(e.startWorkers)
	st := e.stats
	if st != nil {
		st.Runs.Add(1)
		st.Tasks.Add(int64(n))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	pull := func() {
		// Steal and occupancy accounting is batched per helper activation —
		// one add on entry/exit, not per task — so the attached-stats cost
		// stays off the per-index path.
		if st != nil {
			st.HelpersBusy.Add(1)
		}
		var stolen int64
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			fn(i)
			wg.Done()
			stolen++
		}
		if st != nil {
			st.StolenTasks.Add(stolen)
			st.HelpersBusy.Add(-1)
		}
	}
	// Recruit up to min(workers, n-1) helpers; a stale helper that fires
	// after the counter is exhausted returns immediately, so
	// over-recruiting is harmless. offered is touched only by the caller.
	helpers := e.workers
	if n-1 < helpers {
		helpers = n - 1
	}
	offered := 0
	tryOffer := func() {
		for offered < helpers {
			select {
			case e.jobs <- pull:
				offered++
			default:
				return // queue momentarily full; retry before the next task
			}
		}
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		tryOffer()
		fn(i)
		wg.Done()
	}
	wg.Wait()
}

// blockSizeFloor returns the engine's effective minimum block width.
func (e *Engine) blockSizeFloor() int {
	if e == nil || e.blockSize <= 0 {
		return DefaultBlockSize
	}
	return e.blockSize
}

// SetBlockSize overrides the minimum coefficient-block width used by
// RunBlocks (0 restores DefaultBlockSize). Setting it to the ring degree N
// (or anything ≥ N) disables coefficient sharding, reverting to pure
// limb-parallel dispatch — the baseline the sharding benchmark compares
// against. Must not be called concurrently with dispatch.
func (e *Engine) SetBlockSize(n int) {
	if e == nil {
		return
	}
	e.blockSize = n
}

// blockCount returns how many coefficient blocks RunBlocks splits each of
// the given rows of n coefficients into: 1 when the rows alone can occupy
// every worker (or the engine is serial), otherwise the smallest count with
// rows×blocks ≥ workers, capped so no block is narrower than the engine's
// block-size floor.
func (e *Engine) blockCount(rows, n int) int {
	if e == nil || e.workers <= 1 || rows >= e.workers || rows <= 0 {
		return 1
	}
	maxBlocks := n / e.blockSizeFloor()
	if maxBlocks <= 1 {
		return 1
	}
	b := (e.workers + rows - 1) / rows
	if b > maxBlocks {
		b = maxBlocks
	}
	return b
}

// RunBlocks executes fn(i, lo, hi) for every row index i in [0, rows) and
// every coefficient block [lo, hi) of a partition of [0, n), fanning the
// rows×blocks tasks out across the pool. It is the 2-D sharded counterpart
// of Run: when rows (active limbs) < workers, each row is split into
// contiguous blocks chosen by blockCount so the whole pool stays busy even
// at low ciphertext levels; when rows alone fill the pool it degenerates to
// exactly Run with full-width blocks. fn must treat every (row, coefficient)
// pair independently — all sharded kernels write disjoint words per task, so
// outputs are bit-identical to serial execution at every (worker, block)
// configuration.
func (e *Engine) RunBlocks(rows, n int, fn func(i, lo, hi int)) {
	b := e.blockCount(rows, n)
	if e != nil && e.stats != nil {
		e.stats.BlockRuns.Add(1)
		if b > 1 {
			e.stats.ShardedRuns.Add(1)
			e.stats.ShardLastRows.Store(int64(rows))
			e.stats.ShardLastBlocks.Store(int64(b))
		}
	}
	if b <= 1 {
		e.Run(rows, func(i int) { fn(i, 0, n) })
		return
	}
	e.Run(rows*b, func(t int) {
		i, k := t/b, t%b
		fn(i, k*n/b, (k+1)*n/b)
	})
}

// SetEngine attaches an execution engine to the ring (nil reverts to serial).
func (r *Ring) SetEngine(e *Engine) { r.exec = e }

// Exec returns the engine the ring currently dispatches through.
func (r *Ring) Exec() *Engine { return r.exec }

// Workers reports the ring's effective worker count (0 = serial).
func (r *Ring) Workers() int { return r.exec.Workers() }

// ForEachLimbBlock runs fn(i, lo, hi) for every active limb i in 0..level
// and every coefficient block [lo, hi) partitioning [0, N), through the
// ring's engine (see Engine.RunBlocks). fn must treat every (limb,
// coefficient) pair independently. This is the primitive higher layers use
// to keep their custom coefficient loops parallel on low-level ciphertexts.
func (r *Ring) ForEachLimbBlock(level int, fn func(i, lo, hi int)) {
	r.exec.RunBlocks(level+1, r.N, fn)
}

// --- Scratch pools ----------------------------------------------------------
//
// Hot operations must not allocate: a single HMult at paper scale touches
// dozens of temporary polynomials, and per-call make() both thrashes the
// allocator and defeats cache residency (the scratchpad discipline of
// Section 4.2). Each ring owns a sync.Pool of full-chain polynomials and a
// pool of single residue rows; operations borrow with GetPolyNoZero/GetRow
// and return with PutPoly/PutRow.

// SetPoolStats attaches a scratch-pool counter sink to the ring (nil
// detaches): every GetPolyNoZero/GetRow counts a borrow, and a borrow that
// found the pool empty (allocating fresh memory) counts a miss. Attach before
// serving traffic; must not race Get/Put calls.
func (r *Ring) SetPoolStats(st *telemetry.PoolStats) { r.poolStats = st }

// GetPolyNoZero borrows a full-chain polynomial from the ring's scratch pool.
// Row contents are undefined: every active row must be fully overwritten
// before it is read. Return with PutPoly.
func (r *Ring) GetPolyNoZero() *Poly {
	p, _ := r.polyPool.Get().(*Poly)
	if st := r.poolStats; st != nil {
		st.PolyGets.Add(1)
		if p == nil {
			st.PolyMisses.Add(1)
		}
	}
	if p == nil {
		return r.NewPoly(len(r.Moduli))
	}
	return p
}

// PutPoly returns a polynomial borrowed with GetPolyNoZero to the pool. The
// caller must not retain any reference to it. Putting a polynomial not sized
// to the full modulus chain (e.g. one from NewPolyLevel) is a programming
// error and panics, since a later GetPolyNoZero would hand out too few rows.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	if len(p.Coeffs) != len(r.Moduli) {
		panic("ring: PutPoly of a polynomial not sized to the full chain")
	}
	r.polyPool.Put(p)
}

// GetRow borrows one length-N coefficient row (contents undefined) from the
// ring's row pool. Return it with PutRow.
func (r *Ring) GetRow() []uint64 {
	v, _ := r.rowPool.Get().(*[]uint64)
	if st := r.poolStats; st != nil {
		st.RowGets.Add(1)
		if v == nil {
			st.RowMisses.Add(1)
		}
	}
	if v != nil {
		return *v
	}
	return make([]uint64, r.N)
}

// PutRow returns a row borrowed with GetRow.
func (r *Ring) PutRow(row []uint64) {
	if len(row) != r.N {
		panic("ring: PutRow of a row with the wrong length")
	}
	r.rowPool.Put(&row)
}
