//go:build !race

package wire

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
