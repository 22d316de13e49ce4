package haste_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"haste/internal/core"
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
// used to take (n = 12,500 chargers ⇒ 1.25·10⁹ float64 cells), and the
// instance-direct sharded run must then schedule it with exactly the
// utility Evaluate computes on the compiled problem, whose field-wide
// Gamma and kernel that Evaluate builds. CI
// runs this under GOMEMLIMIT as a regression tripwire against any dense
// allocation sneaking back into the compile path.
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
	res, err := core.ScheduleSharded(in, core.Options{Colors: 1, PreferStay: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
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

// TestFleetScaleMillionEndToEnd is the headline the sparse compile was
// built for: a 10⁶-task, 125,000-charger clustered fleet scheduled end to
// end — generation, sparse decomposition, per-component compilation and
// TabularGreedy, stitching — in one process. The dense-era compile would
// have needed a ~1 TB slot-energy table before the first greedy step;
// here every component's compiled form is transient and peak memory stays
// near the instance itself.
func TestFleetScaleMillionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-task end-to-end run takes tens of seconds; skipped under -short")
	}
	const numTasks = 1_000_000
	in := workload.FleetScale(numTasks).Generate(rand.New(rand.NewSource(1)))
	start := time.Now()
	res, err := core.ScheduleSharded(in, core.Options{Colors: 1, PreferStay: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("10⁶ tasks: scheduled in %v, %d shards, utility %.2f, Go heap sys %d MiB (dense table alone would be %d GiB)",
		elapsed.Round(time.Millisecond), res.Shards, res.RUtility, ms.HeapSys>>20, (uint64(len(in.Chargers))*numTasks*8)>>30)
}
