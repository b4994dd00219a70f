// Quickstart: encrypt two vectors, add, multiply, rotate, and decrypt with
// the Full-RNS CKKS library — the primitive ops of Section 2.3 of the BTS
// paper (HAdd, HMult+HRescale, HRot).
//
// The parameter set is a reduced-degree toy (N = 2^11) so the example runs
// in milliseconds; it exercises exactly the code paths the accelerator
// model simulates at N = 2^17.
//
// # Serving the same ops over HTTP with btsserve
//
// Everything this example does locally can run against the multi-tenant
// serving daemon instead. Start it on the same toy parameters:
//
//	go run ./cmd/btsserve -params toy -addr 127.0.0.1:8631
//
// A client then mirrors the daemon's parameters (GET /v1/params, or
// serve.FetchParams), opens a session by uploading its evaluation keys —
// the secret key stays local — and submits jobs over the wire format:
//
//	params, _, _ := serve.FetchParams("http://127.0.0.1:8631")
//	ctx, _ := ckks.NewContext(params)
//	// ... generate keys exactly as below ...
//	cl := serve.NewClient("http://127.0.0.1:8631", ctx)
//	cl.OpenSession("alice", rlk, rtks)
//	res, _ := cl.Do("alice", []serve.Op{
//		{Kind: serve.OpRotate, A: 0, By: 1}, // rot(a, 1)
//		{Kind: serve.OpMul, A: 2, B: 1},     // ⊗ b
//		{Kind: serve.OpRescale, A: 3},       // rescale
//	}, ctA, ctB)
//	fmt.Println(encoder.Decode(decryptor.DecryptNew(res)))
//
// `go run ./cmd/btsbench -experiment serve -clients 4 -addr 127.0.0.1:8631`
// load-tests the daemon and prints a JSON throughput/latency report.
package main

import (
	"fmt"
	"log"

	"bts/internal/ckks"
)

func main() {
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     11,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     51,
		Dnum:     2,
		LogScale: 40,
		H:        64,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, err := ckks.NewContext(params)
	if err != nil {
		log.Fatal(err)
	}

	kg := ckks.NewKeyGenerator(ctx, 1)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	rtks := kg.GenRotationKeys(sk, []int{1, 4}, false)

	encoder := ckks.NewEncoder(ctx)
	encryptor := ckks.NewEncryptorSK(ctx, sk, 2)
	decryptor := ckks.NewDecryptor(ctx, sk)
	eval := ckks.NewEvaluator(ctx, encoder, rlk, rtks)

	// Two small messages (replicated across all N/2 = 1024 slots).
	a := []complex128{0.5, -0.25, 0.125 + 0.5i, 1}
	b := []complex128{2, 4, -2i, 0.5}

	ptA, _ := encoder.Encode(a, params.MaxLevel(), params.Scale)
	ptB, _ := encoder.Encode(b, params.MaxLevel(), params.Scale)
	ctA, _ := encryptor.EncryptNew(ptA)
	ctB, _ := encryptor.EncryptNew(ptB)

	sum := eval.Add(ctA, ctB)
	prod := eval.Rescale(eval.MulRelin(ctA, ctB))
	rot := eval.Rotate(ctA, 1)

	show := func(name string, ct *ckks.Ciphertext, n int) {
		vals := encoder.Decode(decryptor.DecryptNew(ct))
		fmt.Printf("%-10s level=%d:", name, ct.Level)
		for i := 0; i < n; i++ {
			fmt.Printf("  %6.3f%+6.3fi", real(vals[i]), imag(vals[i]))
		}
		fmt.Println()
	}

	fmt.Printf("CKKS quickstart: N=%d, %d slots, L=%d, dnum=%d, λ is NOT production-grade (toy degree)\n\n",
		params.N(), params.Slots(), params.MaxLevel(), params.Dnum)
	show("a", ctA, 4)
	show("b", ctB, 4)
	show("a+b", sum, 4)
	show("a*b", prod, 4)
	show("rot(a,1)", rot, 4)
}
