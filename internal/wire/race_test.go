//go:build race

package wire

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts say nothing about the codec.
const raceEnabled = true
