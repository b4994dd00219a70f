// Command btsbench drives a running btsserve daemon with client load and
// verifies the answers. Usage:
//
//	btsbench -experiment serve|dag -addr HOST:PORT [-clients K] [-duration 5s]
//
// The serve experiment runs -clients concurrent tenants for -duration, each
// looping a rotate→multiply→rescale→add job over wire-format ciphertexts,
// decrypts and verifies the final result of every tenant, and prints a JSON
// throughput/latency report (jobs/s, HE ops/s, p50/p90/p99 latency) to
// stdout.
//
// The dag experiment submits a chained rotation-fan pipeline as one
// register-addressed DAG job, prints its wire bytes and latency, and
// requires the result to decrypt to the plaintext model.
//
// Either experiment exits non-zero when verification fails. Performance is
// measured by the benchmark in bench/ (go run ./bench), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	which := flag.String("experiment", "serve", "load to drive: serve or dag")
	addr := flag.String("addr", "", "address of the running btsserve daemon, host:port or http://host:port (required)")
	clients := flag.Int("clients", 4, "concurrent tenants for -experiment serve")
	duration := flag.Duration("duration", 5*time.Second, "load duration for -experiment serve")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "btsbench: -addr is required (start cmd/btsserve first)")
		os.Exit(2)
	}
	base := baseURL(*addr)
	switch *which {
	case "serve":
		serveBench(base, *clients, *duration)
	case "dag":
		dagBench(base)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q (serve, dag)\n", *which)
		os.Exit(2)
	}
}

// baseURL turns -addr into the daemon's base URL: a bare host:port gains the
// http:// scheme, an http:// URL is taken as is.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") {
		return addr
	}
	return "http://" + addr
}
