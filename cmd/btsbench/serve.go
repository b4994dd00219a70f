package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"bts/internal/ckks"
	"bts/internal/serve"
)

// serveReport is the JSON document the serve experiment prints to stdout —
// the throughput/latency data point of the serving trajectory.
type serveReport struct {
	Experiment  string         `json:"experiment"`
	Clients     int            `json:"clients"`
	DurationSec float64        `json:"duration_sec"`
	OpsPerJob   int            `json:"ops_per_job"`
	Jobs        uint64         `json:"jobs"`
	Ops         uint64         `json:"ops"`
	Errors      uint64         `json:"errors"`
	JobsPerSec  float64        `json:"jobs_per_sec"`
	OpsPerSec   float64        `json:"ops_per_sec"`
	LatencyMs   serveLatency   `json:"latency_ms"`
	Verified    bool           `json:"verified"`
	Server      serve.Stats    `json:"server"`
	Params      map[string]any `json:"params"`
}

type serveLatency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// serveBench drives the btsserve daemon at base with `clients` concurrent
// tenants for `duration`. Each tenant opens its own session, pre-encrypts a
// pair of input vectors, and loops submitting a 4-op job (HRot → HMult →
// HRescale → HAdd) over the wire format; the last response of every tenant
// is decrypted and checked against the expected plaintext result. The report
// goes to stdout as JSON (progress chatter goes to stderr), so CI can archive
// it as an artifact.
func serveBench(base string, clients int, duration time.Duration) {
	fmt.Fprintf(os.Stderr, "serve bench: daemon on %s, %d clients, %s\n", base, clients, duration)

	fetched, _, err := serve.FetchParams(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve bench params: %v\n", err)
		os.Exit(1)
	}

	ops := []serve.Op{
		{Kind: serve.OpRotate, A: 0, By: 1},
		{Kind: serve.OpMul, A: 2, B: 1},
		{Kind: serve.OpRescale, A: 3},
		{Kind: serve.OpAdd, A: 4, B: 0},
	}

	type clientResult struct {
		latenciesMs []float64
		jobs        uint64
		errs        uint64
		verified    bool
		err         error
	}
	results := make([]clientResult, clients)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for cn := 0; cn < clients; cn++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			r := &results[cn]
			ctx, err := ckks.NewContext(fetched)
			if err != nil {
				r.err = err
				return
			}
			kg := ckks.NewKeyGenerator(ctx, int64(9000+cn))
			sk := kg.GenSecretKey()
			rlk := kg.GenRelinearizationKey(sk)
			rtks := kg.GenRotationKeys(sk, []int{1}, true)
			encoder := ckks.NewEncoder(ctx)
			enc := ckks.NewEncryptorSK(ctx, sk, int64(9100+cn))
			dec := ckks.NewDecryptor(ctx, sk)
			api := serve.NewClient(base, ctx)
			name := fmt.Sprintf("tenant-%d", cn)
			if r.err = api.OpenSession(name, rlk, rtks); r.err != nil {
				return
			}

			slots := fetched.Slots()
			a := make([]complex128, slots)
			b := make([]complex128, slots)
			for i := range a {
				a[i] = complex(float64((i+cn)%17)/17, 0)
				b[i] = complex(float64((i+2*cn)%13)/13, 0)
			}
			ptA, _ := encoder.Encode(a, fetched.MaxLevel(), fetched.Scale)
			ptB, _ := encoder.Encode(b, fetched.MaxLevel(), fetched.Scale)
			ctA, err := enc.EncryptNew(ptA)
			if err != nil {
				r.err = err
				return
			}
			ctB, err := enc.EncryptNew(ptB)
			if err != nil {
				r.err = err
				return
			}

			var last *ckks.Ciphertext
			for time.Now().Before(deadline) {
				start := time.Now()
				res, err := api.Do(name, ops, ctA, ctB)
				if err != nil {
					r.errs++
					fmt.Fprintf(os.Stderr, "serve bench client %d: job failed: %v\n", cn, err)
					time.Sleep(50 * time.Millisecond) // don't hammer a failing daemon
					continue
				}
				r.latenciesMs = append(r.latenciesMs, time.Since(start).Seconds()*1e3)
				r.jobs++
				last = res
			}
			if last != nil {
				got := encoder.Decode(dec.DecryptNew(last))
				r.verified = true
				for i := 0; i < slots; i++ {
					want := a[(i+1)%slots]*b[i] + a[i]
					d := real(got[i]) - real(want)
					if d > 1e-3 || d < -1e-3 {
						r.verified = false
						break
					}
				}
			}
		}(cn)
	}
	wg.Wait()

	report := serveReport{
		Experiment:  "serve",
		Clients:     clients,
		DurationSec: duration.Seconds(),
		OpsPerJob:   len(ops),
		Verified:    true,
		Params: map[string]any{
			"log_n": fetched.LogN, "levels": fetched.MaxLevel(), "dnum": fetched.Dnum,
		},
	}
	if resp, err := http.Get(base + "/v1/stats"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&report.Server)
		resp.Body.Close()
	}
	var all []float64
	for cn := range results {
		r := &results[cn]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "serve bench client %d: %v\n", cn, r.err)
			report.Errors++
			report.Verified = false
			continue
		}
		report.Jobs += r.jobs
		report.Errors += r.errs
		all = append(all, r.latenciesMs...)
		if !r.verified {
			report.Verified = false
		}
	}
	report.Ops = report.Jobs * uint64(len(ops))
	report.JobsPerSec = float64(report.Jobs) / duration.Seconds()
	report.OpsPerSec = float64(report.Ops) / duration.Seconds()
	// Any per-request error fails verification: the smoke test must not go
	// green on a daemon that drops requests, even if a late job succeeds.
	if report.Errors > 0 {
		report.Verified = false
	}
	if len(all) > 0 {
		sort.Float64s(all)
		report.LatencyMs = serveLatency{
			P50: serve.Percentile(all, 50),
			P90: serve.Percentile(all, 90),
			P99: serve.Percentile(all, 99),
			Max: all[len(all)-1],
		}
	}
	out, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(out))
	if !report.Verified {
		os.Exit(1)
	}
}
