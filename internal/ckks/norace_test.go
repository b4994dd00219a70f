//go:build !race

package ckks

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
