//go:build race

package dominant_test

// The race detector makes sync.Pool drop items at random, so allocation
// counts of runs that reuse pooled extractors stop being deterministic.
func init() { raceEnabled = true }
