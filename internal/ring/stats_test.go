package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bts/internal/mod"
	"bts/internal/telemetry"
)

func TestEngineStatsCounts(t *testing.T) {
	e := NewEngine(4)
	var st telemetry.EngineStats
	e.SetStats(&st)

	const n, reps = 64, 5
	var hits atomic.Int64
	for r := 0; r < reps; r++ {
		e.Run(n, func(i int) { hits.Add(1) })
	}
	if got := hits.Load(); got != n*reps {
		t.Fatalf("executed %d tasks, want %d", got, n*reps)
	}
	if got := st.Runs.Load(); got != reps {
		t.Fatalf("Runs = %d, want %d", got, reps)
	}
	if got := st.Tasks.Load(); got != n*reps {
		t.Fatalf("Tasks = %d, want %d", got, n*reps)
	}
	if stolen := st.StolenTasks.Load(); stolen < 0 || stolen > n*reps {
		t.Fatalf("StolenTasks = %d, outside [0, %d]", stolen, n*reps)
	}
	// Run returns at the last task's completion; a helper lowers the gauge
	// just after that (and a stale helper still queued blips it), so the
	// gauge is only eventually zero.
	for deadline := time.Now().Add(5 * time.Second); st.HelpersBusy.Load() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("HelpersBusy = %d long after all Runs returned, want 0", st.HelpersBusy.Load())
		}
	}

	// RunBlocks with few rows on a wide pool must record a sharded dispatch.
	e.SetBlockSize(256)
	var cells atomic.Int64
	e.RunBlocks(2, 4096, func(i, lo, hi int) { cells.Add(int64(hi - lo)) })
	if got := cells.Load(); got != 2*4096 {
		t.Fatalf("RunBlocks covered %d cells, want %d", got, 2*4096)
	}
	if st.BlockRuns.Load() == 0 {
		t.Fatal("BlockRuns not counted")
	}
	if st.ShardedRuns.Load() == 0 {
		t.Fatal("ShardedRuns not counted for 2×4096 on a 4-worker pool")
	}
	if rows := st.ShardLastRows.Load(); rows != 2 {
		t.Fatalf("ShardLastRows = %d, want 2", rows)
	}
	if blocks := st.ShardLastBlocks.Load(); blocks < 2 {
		t.Fatalf("ShardLastBlocks = %d, want >= 2", blocks)
	}
}

func TestEngineStatsInlinePath(t *testing.T) {
	e := NewEngine(0) // serial engine: everything runs inline
	var st telemetry.EngineStats
	e.SetStats(&st)
	e.Run(8, func(i int) {})
	e.Run(0, func(i int) {}) // n == 0 must not count
	if got := st.InlineRuns.Load(); got != 1 {
		t.Fatalf("InlineRuns = %d, want 1", got)
	}
	if got := st.Tasks.Load(); got != 8 {
		t.Fatalf("Tasks = %d, want 8", got)
	}
	if got := st.Runs.Load(); got != 0 {
		t.Fatalf("Runs = %d on serial engine, want 0", got)
	}
}

func TestPoolStatsCountsHitsAndMisses(t *testing.T) {
	primes, err := mod.GenerateNTTPrimes(45, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(8, primes)
	if err != nil {
		t.Fatal(err)
	}
	var st telemetry.PoolStats
	r.SetPoolStats(&st)

	// First borrow misses (empty pool); after returning, the next hits.
	p := r.GetPolyNoZero()
	r.PutPoly(p)
	p = r.GetPolyNoZero()
	r.PutPoly(p)
	if got := st.PolyGets.Load(); got != 2 {
		t.Fatalf("PolyGets = %d, want 2", got)
	}
	if miss := st.PolyMisses.Load(); miss < 1 || miss > 2 {
		t.Fatalf("PolyMisses = %d, want 1 (first borrow) allowing 2 (GC-cleared pool)", miss)
	}
}
