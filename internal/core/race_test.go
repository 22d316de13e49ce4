//go:build race

package core

// The race detector makes sync.Pool drop items at random, so allocation
// counts of runs that recycle pooled states stop being deterministic.
func init() { raceEnabled = true }
