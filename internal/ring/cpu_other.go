//go:build !amd64

package ring

// Without amd64 assembly every kernel runs its Go path. These are variables,
// as on amd64, so tests can force the Go path the same way everywhere.
var useIFMA, useVAES, useNTTLanes = false, false, false
