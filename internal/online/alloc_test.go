package online

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"haste/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocBudgetOnlineRun bounds the heap allocations of one online.Run on
// workload.Default with 100 tasks (seed 1, one color, in-memory engine),
// with the reliability layer off and on. Each sits 5% above its measured
// count: 37 428 once the control messages travelled by value in one fixed
// layout, and 48 307 once the reliable agents carved their acks out of a
// per-agent buffer reused across sessions. Boxing each message in an
// interface took 210 813 and 1 110 088; a fresh acks slice in every round
// that owed acks took the reliable run to 424 299; rebuilding every inbox
// each round and sorting it through reflection took 2 068 644 without the
// reliability layer.
var allocBudgetOnlineRun = []struct {
	name     string
	reliable bool
	budget   float64
}{{"basic", false, 39_300}, {"reliable", true, 50_722}}

// A stopped GC keeps the count exact: no collection empties the core
// state pool mid-run.
func TestOnlineRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	cfg := workload.Default()
	cfg.NumTasks = 100
	p := mustProblem(t, cfg.Generate(rand.New(rand.NewSource(1))))
	for _, c := range allocBudgetOnlineRun {
		t.Run(c.name, func(t *testing.T) {
			run := func() { mustRun(t, p, Options{Seed: 1, Reliable: c.reliable}) }
			run()
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(3, run)
			t.Logf("online.Run on workload.Default (100 tasks) seed 1, %s: %.0f allocs (budget %.0f)", c.name, allocs, c.budget)
			if allocs > c.budget {
				t.Fatalf("%.0f allocs, budget %.0f", allocs, c.budget)
			}
		})
	}
}
