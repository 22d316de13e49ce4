package online

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"haste/internal/transport"
	"haste/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocBudgetOnlineRun bounds the heap allocations of one online.Run
// (seed 1, one color): on workload.Default with 100 tasks over the
// in-memory engine, with the reliability layer off and on, and on the
// mid-scale instance of the benchmark's online-tcp workload (12 chargers,
// 40 tasks) over loopback TCP. Each sits 5% above its measured count:
// 2 555, 2 822 and 4 858 once the neighbor relation grew with each
// arrival batch instead of being rebuilt for every negotiation (2 558,
// 2 826 and 4 892 since a round stores each broadcast once: a second
// outbox bank per run, and a payload bank per TCP node server), which
// took 2 689, 2 956 and 4 884 once each charger kept one agent, indexed
// by its own row, for the whole run. Rebuilding every agent for every
// negotiation took 30 447, 40 834 and 6 072 (30 399, 40 786 and 6 065
// before each negotiation held one buffer for the known tasks of each
// charger's row), once one driver served every negotiation of a run and
// a socket round stopped spawning a goroutine per node. A driver
// per negotiation took 37 428, 48 307 and 72 719 (the round loop regrew
// its inboxes, and each TCP engine dialed its sockets, every time); boxing each message in an interface took 210 813
// and 1 110 088; a fresh acks slice in every round that owed acks took
// the reliable run to 424 299; rebuilding every inbox each round and
// sorting it through reflection took 2 068 644 without the reliability
// layer.
var allocBudgetOnlineRun = []struct {
	name   string
	cfg    workload.Config
	opt    Options
	budget float64
}{
	{"basic", paperHalf(), Options{Seed: 1}, 2_683},
	{"reliable", paperHalf(), Options{Seed: 1, Reliable: true}, 2_963},
	{"tcp", midScale(), Options{Seed: 1, Driver: transport.Factory}, 5_101},
}

// paperHalf is workload.Default with 100 tasks.
func paperHalf() workload.Config {
	c := workload.Default()
	c.NumTasks = 100
	return c
}

// midScale is workload.Default cut to 12 chargers and 40 tasks with
// short windows and early releases.
func midScale() workload.Config {
	c := workload.Default()
	c.NumChargers, c.NumTasks = 12, 40
	c.DurationMin, c.DurationMax = 5, 20
	c.ReleaseMax = 10
	return c
}

// A stopped GC keeps the count exact: no collection empties the core
// state pool mid-run.
func TestOnlineRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	for _, c := range allocBudgetOnlineRun {
		t.Run(c.name, func(t *testing.T) {
			p := mustProblem(t, c.cfg.Generate(rand.New(rand.NewSource(1))))
			run := func() { mustRun(t, p, c.opt) }
			run()
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			allocs := testing.AllocsPerRun(3, run)
			t.Logf("online.Run %s (%d chargers, %d tasks) seed 1: %.0f allocs (budget %.0f)",
				c.name, len(p.In.Chargers), len(p.In.Tasks), allocs, c.budget)
			if allocs > c.budget {
				t.Fatalf("%.0f allocs, budget %.0f", allocs, c.budget)
			}
		})
	}
}
