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
// workload.Default with 100 tasks (seed 1, one color, in-memory engine).
// It sits 5% above the 210 813 measured once the round loop reused its
// inboxes and the agents their per-session state; rebuilding every inbox
// each round and sorting it through reflection took 2 068 644. Most of
// what is left boxes the BID and UPD payloads each round.
const allocBudgetOnlineRun = 221_354

// A stopped GC keeps the count exact: no collection empties the core
// state pool mid-run.
func TestOnlineRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	cfg := workload.Default()
	cfg.NumTasks = 100
	p := mustProblem(t, cfg.Generate(rand.New(rand.NewSource(1))))
	run := func() { mustRun(t, p, Options{Seed: 1}) }
	run()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("online.Run on workload.Default (100 tasks) seed 1: %.0f allocs (budget %d)", allocs, allocBudgetOnlineRun)
	if allocs > allocBudgetOnlineRun {
		t.Fatalf("%.0f allocs, budget %d", allocs, allocBudgetOnlineRun)
	}
}
