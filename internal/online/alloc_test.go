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
// with the reliability layer off and on. Each sits 5% above the count
// measured once the control messages travelled by value in one fixed
// layout: 37 428 and 424 299. Boxing each message in an interface took
// 210 813 and 1 110 088; rebuilding every inbox each round and sorting it
// through reflection took 2 068 644 without the reliability layer. Most
// of the reliable run's allocations are the acks slice of each round
// that owes acks.
var allocBudgetOnlineRun = []struct {
	name     string
	reliable bool
	budget   float64
}{{"basic", false, 39_300}, {"reliable", true, 445_514}}

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
