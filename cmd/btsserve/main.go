// Command btsserve is the multi-tenant FHE serving daemon: an HTTP server
// speaking the internal/wire binary format in front of the internal/serve
// job scheduler. Clients mirror the daemon's CKKS parameters (GET
// /v1/params), open named sessions by uploading evaluation keys, and submit
// jobs — programs of Add/Sub/Mult/Rotate/Conjugate/Rescale/Bootstrap ops —
// over wire-format ciphertexts. The secret key never leaves the client.
//
// Usage:
//
//	btsserve [-addr 127.0.0.1:8631] [-params toy|small|boot] [-workers N]
//	         [-parallel 32] [-queue 1024]
//	         [-store DIR] [-quota BYTES] [-key-cache BYTES]
//	         [-job-timeout 0] [-drain-timeout 30s]
//	         [-metrics] [-slow-job 0] [-pprof]
//
// Queued jobs start in FIFO order, each on its own goroutine, with at most
// -parallel executing at once; each job's ops run on the context's engine of
// -workers workers (0 = GOMAXPROCS).
//
// Fault-tolerance flags:
//
//	-store          root directory of the durable session store; sessions
//	                and their uploaded keys survive restarts (keys rehydrate
//	                lazily on first use)
//	-quota          per-session decoded evaluation-key byte quota
//	                (0 = unlimited); oversized uploads fail with HTTP 413
//	-key-cache      total decoded-key bytes kept resident across sessions
//	                (0 = unlimited; requires -store): cold sessions' keys
//	                are evicted to disk and reloaded on demand
//	-job-timeout    default per-job deadline (0 = none); requests may set
//	                their own via JobRequest.timeout_ms
//	-drain-timeout  how long SIGTERM/SIGINT shutdown waits for in-flight
//	                jobs before abandoning them (they fail with typed
//	                retryable errors, never a wrong result)
//
// The BTS_FAILPOINTS environment variable arms fault-injection failpoints
// for chaos drills, e.g.
// BTS_FAILPOINTS="serve.store.load=error,count=1;serve.op.exec=delay,delay=50ms"
// (see internal/faultinject).
//
// Observability flags:
//
//	-metrics    serve Prometheus text on GET /metrics and expvar JSON on
//	            GET /debug/vars (default true; -metrics=false opts out).
//	            Exported series cover the execution engine (dispatches,
//	            steal counts, RunBlocks shapes, pool hit/miss), the wire
//	            codec (bytes/envelopes in and out), the scheduler (queue
//	            depth, job results and latency), per-op
//	            latency histograms keyed op kind × level, the per-session
//	            op mix, and each session's running noise floor.
//	-slow-job   latency threshold above which a job's full span tree —
//	            HTTP submit → queue → per-op → evaluator internals →
//	            bootstrap phases — is retained and served on GET
//	            /v1/traces (0, the default, disables tracing).
//	-pprof      mount net/http/pprof under /debug/pprof/ (off by default;
//	            profiling endpoints on a serving port are opt-in).
//
// Parameter presets (all reduced-degree research instances, not
// production-hardened lattice parameters):
//
//	toy    N=2^11, 4 levels  — the quickstart instance, fastest turnaround
//	small  N=2^12, 8 levels  — the default
//	boot   N=2^10, 15 levels — bootstrappable chain; enables the
//	                           "bootstrap" op for sessions whose rotation
//	                           keys cover the advertised set: the rotations
//	                           of the two-stage radix CoeffToSlot and
//	                           SlotToCoeff chains
//
// The daemon exits gracefully on SIGINT/SIGTERM: it stops accepting
// connections, drains queued and in-flight jobs (bounded by -drain-timeout),
// and exits 0. Durable sessions need no flush — the store is write-through.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bts/internal/ckks"
	"bts/internal/faultinject"
	"bts/internal/serve"
)

// presetLiteral returns the parameter literal for a named preset and whether
// the preset enables bootstrapping.
func presetLiteral(name string) (ckks.ParametersLiteral, bool, error) {
	switch name {
	case "toy":
		return ckks.ParametersLiteral{
			LogN: 11, LogQ: []int{50, 40, 40, 40}, LogP: 51,
			Dnum: 2, LogScale: 40, H: 64,
		}, false, nil
	case "small":
		return ckks.ParametersLiteral{
			LogN: 12, LogQ: []int{50, 40, 40, 40, 40, 40, 40, 40}, LogP: 51,
			Dnum: 3, LogScale: 40, H: 64,
		}, false, nil
	case "boot":
		logQ := []int{55}
		for i := 0; i < 14; i++ {
			logQ = append(logQ, 45)
		}
		return ckks.ParametersLiteral{
			LogN: 10, LogQ: logQ, LogP: 55,
			Dnum: 2, LogScale: 45, H: 8,
		}, true, nil
	}
	return ckks.ParametersLiteral{}, false, fmt.Errorf("unknown preset %q (toy, small, boot)", name)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8631", "listen address")
	preset := flag.String("params", "small", "parameter preset (toy, small, boot)")
	workers := flag.Int("workers", 0, "workers of the context's execution engine (0 = GOMAXPROCS)")
	parallel := flag.Int("parallel", 32, "max jobs executing at once")
	queue := flag.Int("queue", 1024, "max queued jobs")
	storeDir := flag.String("store", "", "durable session store directory (empty = RAM-only sessions)")
	quota := flag.Int64("quota", 0, "per-session decoded key-byte quota (0 = unlimited)")
	keyCache := flag.Int64("key-cache", 0, "total resident decoded key bytes before LRU eviction (0 = unlimited; requires -store)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs at shutdown")
	metrics := flag.Bool("metrics", true, "serve Prometheus text on /metrics and expvar on /debug/vars")
	slowJob := flag.Duration("slow-job", 0, "trace jobs and retain span trees of jobs slower than this (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	lit, boot, err := presetLiteral(*preset)
	if err != nil {
		log.Fatal(err)
	}
	params, err := ckks.NewParameters(lit)
	if err != nil {
		log.Fatal(err)
	}
	if spec := os.Getenv("BTS_FAILPOINTS"); spec != "" {
		if err := faultinject.ArmFromSpec(spec); err != nil {
			log.Fatalf("btsserve: BTS_FAILPOINTS: %v", err)
		}
		log.Printf("btsserve: fault injection armed: %s", spec)
	}
	cfg := serve.Config{
		Params:            params,
		Workers:           *workers,
		Parallel:          *parallel,
		MaxQueue:          *queue,
		StoreDir:          *storeDir,
		SessionQuotaBytes: *quota,
		KeyCacheBytes:     *keyCache,
		DefaultJobTimeout: *jobTimeout,
		DisableMetrics:    !*metrics,
		SlowJob:           *slowJob,
		Pprof:             *pprofOn,
	}
	if boot {
		bp := ckks.DefaultBootstrapParams()
		cfg.Bootstrap = &bp
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if boot {
		log.Printf("btsserve: preset %s (N=2^%d, L=%d, dnum=%d), parallel=%d, bootstrap on (%d rotation keys per session)",
			*preset, params.LogN, params.MaxLevel(), params.Dnum, *parallel, len(srv.BootstrapRotations()))
	} else {
		log.Printf("btsserve: preset %s (N=2^%d, L=%d, dnum=%d), parallel=%d, bootstrap=false",
			*preset, params.LogN, params.MaxLevel(), params.Dnum, *parallel)
	}

	if *storeDir != "" {
		st := srv.Stats()
		log.Printf("btsserve: durable store at %s (%d stored sessions), quota=%d B/session, key-cache=%d B",
			*storeDir, len(st.Sessions), *quota, *keyCache)
	}
	if *jobTimeout > 0 {
		log.Printf("btsserve: default job deadline %s", *jobTimeout)
	}
	if *metrics {
		log.Printf("btsserve: metrics on /metrics, expvar on /debug/vars")
	}
	if *slowJob > 0 {
		log.Printf("btsserve: tracing jobs, retaining span trees over %s on /v1/traces", *slowJob)
	}
	if *pprofOn {
		log.Printf("btsserve: pprof on /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		got := <-sig
		log.Printf("btsserve: %s: draining (up to %s)", got, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop accepting connections first (in-flight HTTP requests finish),
		// then drain the scheduler: queued and executing jobs complete, new
		// submits fail with a retryable "unavailable" error.
		_ = httpSrv.Shutdown(ctx)
		if err := srv.Drain(ctx); err != nil {
			log.Printf("btsserve: drain abandoned after %s: remaining jobs failed cleanly", *drainTimeout)
		} else {
			log.Print("btsserve: drained")
		}
	}()
	log.Printf("btsserve: listening on http://%s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done
	srv.Close()
	log.Print("btsserve: exit")
}
