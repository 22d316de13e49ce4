//go:build race

package online

func init() { raceEnabled = true }
