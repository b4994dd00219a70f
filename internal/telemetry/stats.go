package telemetry

import "sync/atomic"

// EngineStats counts ring.Engine activity. The engine bumps these through a
// nil-guarded pointer (ring.Engine.SetStats): a detached engine pays a single
// predictable branch per dispatch, an attached one a few atomic adds per Run
// — noise next to the polynomial arithmetic a Run fans out.
type EngineStats struct {
	// Runs counts parallel dispatches; InlineRuns counts dispatches executed
	// serially on the caller (serial engine, or n <= 1).
	Runs, InlineRuns atomic.Int64
	// Tasks counts every task across both paths; StolenTasks counts the
	// subset executed by recruited helper workers rather than the caller —
	// StolenTasks/Tasks is the pool's effective work-sharing ratio.
	Tasks, StolenTasks atomic.Int64
	// HelpersBusy is a point-in-time gauge of helper workers currently
	// executing tasks (worker occupancy; the caller's own goroutine is not
	// counted). A helper lowers it after finishing its last task, which can
	// be after the dispatch it served has returned: on an idle engine the
	// gauge is eventually zero, not zero the instant Run returns.
	HelpersBusy atomic.Int64
	// BlockRuns counts RunBlocks dispatches; ShardedRuns the subset that
	// actually split rows into >1 coefficient blocks. ShardLastRows and
	// ShardLastBlocks record the shape (rows × blocks) of the most recent
	// sharded dispatch.
	BlockRuns, ShardedRuns         atomic.Int64
	ShardLastRows, ShardLastBlocks atomic.Int64
}

// Collect renders the engine series.
func (es *EngineStats) Collect(w *Writer) {
	w.Counter("bts_engine_runs_total", "Parallel Engine.Run dispatches.", nil, float64(es.Runs.Load()))
	w.Counter("bts_engine_inline_runs_total", "Engine dispatches executed serially on the caller.", nil, float64(es.InlineRuns.Load()))
	w.Counter("bts_engine_tasks_total", "Tasks executed across all dispatches.", nil, float64(es.Tasks.Load()))
	w.Counter("bts_engine_stolen_tasks_total", "Tasks executed by recruited helper workers.", nil, float64(es.StolenTasks.Load()))
	w.Gauge("bts_engine_helpers_busy", "Helper workers currently executing tasks.", nil, float64(es.HelpersBusy.Load()))
	w.Counter("bts_engine_block_runs_total", "RunBlocks (2-D) dispatches.", nil, float64(es.BlockRuns.Load()))
	w.Counter("bts_engine_sharded_runs_total", "RunBlocks dispatches that split rows into coefficient blocks.", nil, float64(es.ShardedRuns.Load()))
	w.Gauge("bts_engine_shard_last_rows", "Row count of the most recent sharded dispatch.", nil, float64(es.ShardLastRows.Load()))
	w.Gauge("bts_engine_shard_last_blocks", "Blocks per row of the most recent sharded dispatch.", nil, float64(es.ShardLastBlocks.Load()))
}

// PoolStats counts a ring's scratch-pool traffic (sync.Pool hit/miss). A miss
// is a Get that had to allocate fresh memory. The row counters count the
// residue rows a pooled ckks ciphertext grows, each one a get and a miss.
type PoolStats struct {
	PolyGets, PolyMisses atomic.Int64
	RowGets, RowMisses   atomic.Int64
}

// Collect renders the pool series for one ring (label ring="q"|"p"). Rows
// grow only on the q ring, where pooled ciphertexts live, so the row kind
// is rendered for ring="q" alone; the p ring's row counters stay 0.
func (ps *PoolStats) Collect(w *Writer, ringLabel string) {
	for _, s := range []struct {
		kind         string
		gets, misses *atomic.Int64
	}{
		{"poly", &ps.PolyGets, &ps.PolyMisses},
		{"row", &ps.RowGets, &ps.RowMisses},
	} {
		if s.kind == "row" && ringLabel != "q" {
			continue
		}
		labels := []Label{{"ring", ringLabel}, {"kind", s.kind}}
		w.Counter("bts_pool_gets_total", "Scratch-pool borrows.", labels, float64(s.gets.Load()))
		w.Counter("bts_pool_misses_total", "Scratch-pool borrows that allocated fresh memory.", labels, float64(s.misses.Load()))
	}
}

// WireStats counts codec traffic at the envelope choke points: bytes and
// envelopes encoded (out) and decoded (in), headers included.
type WireStats struct {
	BytesIn, BytesOut         atomic.Int64
	EnvelopesIn, EnvelopesOut atomic.Int64
}

// Collect renders the wire series.
func (ws *WireStats) Collect(w *Writer) {
	w.Counter("bts_wire_bytes_total", "Envelope bytes through the codec.", []Label{{"dir", "in"}}, float64(ws.BytesIn.Load()))
	w.Counter("bts_wire_bytes_total", "Envelope bytes through the codec.", []Label{{"dir", "out"}}, float64(ws.BytesOut.Load()))
	w.Counter("bts_wire_envelopes_total", "Envelopes through the codec.", []Label{{"dir", "in"}}, float64(ws.EnvelopesIn.Load()))
	w.Counter("bts_wire_envelopes_total", "Envelopes through the codec.", []Label{{"dir", "out"}}, float64(ws.EnvelopesOut.Load()))
}

// ContextStats bundles one ckks.Context's engine and per-ring pool stats, so
// a server attaches everything with one call (ckks.Context.SetStats).
type ContextStats struct {
	Engine EngineStats
	PoolQ  PoolStats
	PoolP  PoolStats
}

// Collect renders every series of the bundle.
func (cs *ContextStats) Collect(w *Writer) {
	cs.Engine.Collect(w)
	cs.PoolQ.Collect(w, "q")
	cs.PoolP.Collect(w, "p")
}
