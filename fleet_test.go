package haste_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/online"
	"haste/internal/workload"
)

// TestFleetScaleShardedEquivalence pins the beyond-paper-scale headline:
// on the clustered 10⁴-task fleet (the BenchmarkFleetScaleSharded
// instance) the shard-and-stitch run reproduces the monolithic relaxed
// utility exactly, one schedule per schedulable component. The general
// contract — bit-identical assigned cells, -1 padding past each
// component's horizon — is proven by internal/difftest's sharded sweep;
// this test keeps the large-scale path itself exercised by tier-1.
func TestFleetScaleShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-task compile is ~0.5s; skipped under -short")
	}
	in := workload.FleetScale(10_000).Generate(rand.New(rand.NewSource(1)))
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	mono := core.TabularGreedy(p, core.Options{Colors: 1, PreferStay: true, Workers: 1, Shard: core.ShardOff})
	sharded := core.TabularGreedy(p, core.Options{Colors: 1, PreferStay: true, Workers: 4, Shard: core.ShardOn})
	if sharded.RUtility != mono.RUtility {
		t.Fatalf("sharded utility %v != monolithic %v", sharded.RUtility, mono.RUtility)
	}
	if want := p.SchedulableComponents(); sharded.Shards != want {
		t.Fatalf("shards = %d, want %d schedulable components", sharded.Shards, want)
	}
	if sharded.Shards < 200 {
		t.Fatalf("only %d schedulable components — fleet workload drifted", sharded.Shards)
	}
}

// TestFleetScale100k is the sparse-compile smoke: the Problem at 10⁵
// tasks must compile in a heap far below the ~10 GB the dense n×m table
// used to take (n = 12,500 chargers ⇒ 1.25·10⁹ float64 cells), and a
// ShardAuto run must then schedule it with exactly the utility Evaluate
// computes on the compiled problem, whose field-wide Gamma and kernel
// that Evaluate builds. CI runs this under GOMEMLIMIT as a regression
// tripwire against any dense allocation sneaking back into the compile
// path.
func TestFleetScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-task compile+schedule is seconds; skipped under -short")
	}
	in := workload.FleetScale(100_000).Generate(rand.New(rand.NewSource(1)))
	start := time.Now()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	compile := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1500<<20 {
		t.Fatalf("heap after 10⁵-task compile is %d MiB — dense-scale allocation crept back in", ms.HeapAlloc>>20)
	}
	start = time.Now()
	res := core.TabularGreedy(p, core.Options{Colors: 1, PreferStay: true, Workers: 4})
	if want := p.SchedulableComponents(); res.Shards != want {
		t.Fatalf("shards = %d, want %d schedulable components", res.Shards, want)
	}
	if res.RUtility <= 0 {
		t.Fatalf("scheduled 10⁵-task fleet delivered utility %v", res.RUtility)
	}
	if got := core.Evaluate(p, res.Schedule); res.RUtility != got {
		t.Fatalf("RUtility %.17g != Evaluate on the compiled problem %.17g", res.RUtility, got)
	}
	t.Logf("10⁵ tasks: compile %v (heap %d MiB), schedule %v, %d shards, utility %.2f",
		compile.Round(time.Millisecond), ms.HeapAlloc>>20, time.Since(start).Round(time.Millisecond), res.Shards, res.RUtility)
}

// TestOnlineFleetScale runs the distributed online algorithm (one
// long-lived agent per charger, renegotiating at every arrival batch) on
// the clustered 10⁵-task fleet: 12 500 chargers, seed 1, C=1. Each agent
// holds only its own sparse row, so the run must stay far below the
// gigabytes an m-task energy view per agent would take; CI runs it under
// GOMEMLIMIT. The per-negotiation counters must reconcile with the
// network totals, as on the paper-scale field.
//
// The heap bound: on a 2-vCPU Xeon (go1.24.0) three runs of this test
// took 3.7–4.3 s and ended at 87–91 MiB HeapSys. 256 MiB leaves room for
// GC pacing while tripping on any per-agent copy of the field (one m-task
// energy view per charger is 12 500 × 10⁵ floats, 10 GB).
func TestOnlineFleetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-task online run takes seconds; skipped under -short")
	}
	in := workload.FleetScale(100_000).Generate(rand.New(rand.NewSource(1)))
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := online.Run(p, online.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := res.Stats
	if st.TotalMessages() != st.Net.Messages || st.TotalRounds() != st.Net.Rounds {
		t.Fatalf("per-negotiation totals (%d messages, %d rounds) != network totals (%d, %d)",
			st.TotalMessages(), st.TotalRounds(), st.Net.Messages, st.Net.Rounds)
	}
	if res.Outcome.Utility <= 0 || res.Outcome.Utility > in.TotalWeight() || st.Net.Messages == 0 {
		t.Fatalf("online 10⁵-task run: utility %v (total weight %v), %d messages", res.Outcome.Utility, in.TotalWeight(), st.Net.Messages)
	}
	if ms.HeapSys > 256<<20 {
		t.Fatalf("HeapSys %d MiB after the online 10⁵-task run — a per-agent field-wide allocation crept back in", ms.HeapSys>>20)
	}
	t.Logf("online 10⁵ tasks: %v, %d negotiations, %d rounds, %d messages, utility %.6f, HeapSys %d MiB",
		elapsed.Round(time.Millisecond), len(st.Negotiations), st.Net.Rounds, st.Net.Messages, res.Outcome.Utility, ms.HeapSys>>20)
}

// TestFleetScaleMillionEndToEnd is the headline the sparse compile was
// built for: a 10⁶-task, 125,000-charger clustered fleet scheduled end to
// end — generation, sparse decomposition, per-component compilation and
// TabularGreedy, stitching — in one process, through NewProblem and a
// ShardAuto solve. The dense-era compile would have needed a ~1 TB
// slot-energy table before the first greedy step; here the Problem holds
// only the sparse rows plus every component's compiled sub-Problem.
//
// The heap bound: on a 2-vCPU Xeon (go1.24.0, Workers 4) this run peaked
// at 613 MiB HeapAlloc and 631 MiB HeapSys (heap sampled every 20 ms),
// and three runs of this test ended at 639–651 MiB HeapSys after 3.0–3.1 s
// of compile and solve (about 3.5 s with generation). 1 GiB of HeapSys
// leaves room for GC pacing while still tripping on any field-wide (n×m
// or monolithic-kernel) allocation.
func TestFleetScaleMillionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-task end-to-end run takes seconds; skipped under -short")
	}
	const numTasks = 1_000_000
	in := workload.FleetScale(numTasks).Generate(rand.New(rand.NewSource(1)))
	start := time.Now()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	res := core.TabularGreedy(p, core.Options{Colors: 1, PreferStay: true, Workers: 4})
	elapsed := time.Since(start)
	// Each of the isolated clusters holds 5 chargers, so it yields between
	// one and five schedulable components; far fewer shards than clusters
	// would mean clusters merged, far more that coverage degenerated.
	clusters := (numTasks + 39) / 40
	if res.Shards < clusters/2 || res.Shards > 5*clusters {
		t.Fatalf("shards = %d for %d isolated clusters — decomposition degenerated", res.Shards, clusters)
	}
	// Utility sanity: strictly positive and bounded by Σ_j w_j (U ≤ 1 per
	// task; the fleet workload keeps the paper's w_j = 1/m convention, so
	// the bound is 1).
	if res.RUtility <= 0 || res.RUtility > in.TotalWeight() {
		t.Fatalf("10⁶-task utility out of range: %v (total weight %v)", res.RUtility, in.TotalWeight())
	}
	assigned := 0
	for _, row := range res.Schedule.Policy {
		for _, pol := range row {
			if pol >= 0 {
				assigned++
			}
		}
	}
	if assigned == 0 {
		t.Fatal("no schedule cell assigned")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > 1<<30 {
		t.Fatalf("Go heap sys %d MiB after the 10⁶-task run, want under 1 GiB", ms.HeapSys>>20)
	}
	t.Logf("10⁶ tasks: compiled and scheduled in %v, %d shards, utility %.17g, Go heap sys %d MiB (dense table alone would be %d GiB)",
		elapsed.Round(time.Millisecond), res.Shards, res.RUtility, ms.HeapSys>>20, (uint64(len(in.Chargers))*numTasks*8)>>30)
}
