package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bts/internal/ckks"
	"bts/internal/serve"
)

// dagReport is the JSON document the dag experiment prints to stdout.
type dagReport struct {
	Experiment string  `json:"experiment"`
	Stages     int     `json:"stages"`
	OpsPerRun  int     `json:"ops_per_run"`
	WireBytes  int64   `json:"wire_bytes"`
	Ms         float64 `json:"ms"`
	MaxErr     float64 `json:"max_err"`
	Verified   bool    `json:"verified"`

	Params map[string]any `json:"params"`
}

// dagBench submits a 3-stage pipeline — each stage a 4-way rotation fan,
// summed, scaled by a plaintext half and rescaled — to the daemon at base as
// one register-addressed DAG job, which exercises the daemon's registers and
// its fan detector's shared decompositions. It exits 1 unless the result
// decrypts to the plaintext model. The comparison against per-op round trips
// (bit identity, wire bytes, key-switch counts) is TestDAGFlatEquivalence in
// internal/serve.
func dagBench(base string) {
	report := dagReport{Experiment: "dag", Stages: 3}
	die := func(phase string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "dag bench %s: %v\n", phase, err)
			os.Exit(1)
		}
	}

	pctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	fetched, _, err := serve.FetchParams(pctx, base)
	cancel()
	die("params", err)
	// Three rescales, one per stage: the toy preset's MaxLevel()=3 is
	// exactly enough.
	if fetched.MaxLevel() < report.Stages {
		fmt.Fprintf(os.Stderr, "dag bench: daemon has %d levels, need %d\n", fetched.MaxLevel(), report.Stages)
		os.Exit(1)
	}
	report.Params = map[string]any{
		"log_n": fetched.LogN, "levels": fetched.MaxLevel(), "dnum": fetched.Dnum,
	}
	fmt.Fprintf(os.Stderr, "dag bench: daemon on %s, %d-stage rotation-fan pipeline\n", base, report.Stages)

	ctx, err := ckks.NewContext(fetched)
	die("context", err)
	rots := []int{1, 2, 4, 8}
	kg := ckks.NewKeyGenerator(ctx, 4242)
	sk := kg.GenSecretKey()
	encoder := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptorSK(ctx, sk, 4243)
	dec := ckks.NewDecryptor(ctx, sk)

	api := serve.NewClient(base, ctx)
	die("session", api.OpenSession("dag", kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, rots, true)))

	slots := fetched.Slots()
	a := make([]complex128, slots)
	for i := range a {
		a[i] = complex(float64(i%23)/23-0.5, 0)
	}
	pt, _ := encoder.Encode(a, fetched.MaxLevel(), fetched.Scale)
	ct0, err := enc.EncryptNew(pt)
	die("encrypt", err)
	const half = 0.5
	halfVals := []float64{half}

	var ops []serve.Op
	curReg := "$x0"
	for s := 0; s < report.Stages; s++ {
		r := func(name string) string { return fmt.Sprintf("$s%d%s", s, name) }
		for _, by := range rots {
			ops = append(ops, serve.Op{Kind: serve.OpRotate, Ra: curReg, Out: r(fmt.Sprintf("r%d", by)), By: by})
		}
		ops = append(ops,
			serve.Op{Kind: serve.OpAdd, Ra: r("r1"), Rb: r("r2"), Out: r("a")},
			serve.Op{Kind: serve.OpAdd, Ra: r("r4"), Rb: r("r8"), Out: r("b")},
			serve.Op{Kind: serve.OpAdd, Ra: r("a"), Rb: r("b"), Out: r("sum")},
			serve.Op{Kind: serve.OpMulPlain, Ra: r("sum"), Out: r("p"), Vals: halfVals},
			serve.Op{Kind: serve.OpRescale, Ra: r("p"), Out: fmt.Sprintf("$x%d", s+1)},
		)
		curReg = fmt.Sprintf("$x%d", s+1)
	}
	report.OpsPerRun = len(ops)

	api.ResetWireBytes()
	t0 := time.Now()
	outs, err := api.DoDAG(context.Background(), "dag", []string{"$x0"}, ops, []string{curReg}, ct0)
	die("job", err)
	report.Ms = time.Since(t0).Seconds() * 1e3
	in, out := api.WireBytes()
	report.WireBytes = in + out

	// Plaintext model: stage(v)[i] = (v[i+1]+v[i+2]+v[i+4]+v[i+8]) / 2.
	want := a
	for s := 0; s < report.Stages; s++ {
		next := make([]complex128, slots)
		for i := range next {
			for _, by := range rots {
				next[i] += want[(i+by)%slots]
			}
			next[i] *= half
		}
		want = next
	}
	got := encoder.Decode(dec.DecryptNew(outs[0]))
	for i := range want {
		if d := real(got[i]) - real(want[i]); d > report.MaxErr {
			report.MaxErr = d
		} else if -d > report.MaxErr {
			report.MaxErr = -d
		}
	}
	report.Verified = report.MaxErr < 1e-2

	doc, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(doc))
	if !report.Verified {
		fmt.Fprintf(os.Stderr, "dag bench: result error %g exceeds 1e-2\n", report.MaxErr)
		os.Exit(1)
	}
}
