//go:build race

package ckks

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts say nothing about the pool.
const raceEnabled = true
