//go:build !amd64

package ring

// Without amd64 assembly every kernel runs its Go path. These are variables,
// as on amd64, so tests can force the Go path the same way everywhere.
var useIFMA, useVAES, useLanes = false, false, false

// noLanes stands in for the AVX-512 lane kernels of both tiers (the NTT
// passes and the element-wise rows), which useLanes keeps unreachable off
// amd64.
func noLanes() { panic("ring: lane kernel without AVX-512") }
