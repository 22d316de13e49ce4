// Differential tests: every execution strategy of TabularGreedy — the
// instrumented per-state scan, the generic kernel and sharded runs at any
// component-pool size — must reproduce the flat-kernel reference
// byte-for-byte (under the stitching contract, for sharded runs) on the
// seeded workload sweeps. This file (with the internal/difftest harness) is
// the determinism contract of DESIGN.md §3 "Parallel execution &
// determinism"; CI additionally runs it under the race detector.
package core_test

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/difftest"
)

// TestTabularGreedyDifferentialSweep is the acceptance-criteria suite: for
// every seeded case, the instrumented scan and the generic kernel produce
// the batched flat-kernel run's Schedule.Policy table and RUtility.
func TestTabularGreedyDifferentialSweep(t *testing.T) {
	for _, c := range difftest.Sweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.Run(c, difftest.Variants()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShardedDifferentialSweep is the shard-and-stitch acceptance suite:
// for every clustered multi-component and fully connected case, a
// ShardOn run of every execution variant (component-pool size, generic
// kernel, instrumented scan) reproduces the monolithic Workers=1
// reference under the stitching contract — bit-identical on connected
// instances, exact utility equality plus per-component schedule identity
// on multi-component ones. See difftest.RunSharded.
func TestShardedDifferentialSweep(t *testing.T) {
	for _, c := range difftest.ShardSweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.RunSharded(c, difftest.ShardVariants()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMutationWalkDifferentialSweep is the incremental-scheduling
// acceptance suite: a ≥100-step random add/remove walk through the delta
// operations, where after every step the patched problem must equal a
// from-scratch compile, and periodic warm-started solves under every
// execution variant (component-pool size, generic kernel) must be
// bit-identical to cold solves of freshly compiled problems. The clustered
// cases must actually adopt untouched components across the walk, or the
// warm-start machinery would be passing vacuously.
func TestMutationWalkDifferentialSweep(t *testing.T) {
	steps, solveEvery := 120, 6
	if testing.Short() {
		steps = 30
	}
	for _, c := range difftest.MutationSweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			reused, err := difftest.RunMutationWalk(c, difftest.MutationVariants(), steps, solveEvery)
			if err != nil {
				t.Fatal(err)
			}
			if c.Clusters > 1 && reused == 0 {
				t.Error("no component was ever adopted warm — the sweep is vacuous")
			}
		})
	}
}

// TestTabularGreedyWorkerCountIrrelevant drives one mid-size C > 1 case
// through a dense worker-count grid, including counts far above both
// GOMAXPROCS and the sample count: Workers only sizes the component pool
// of sharded runs, so a monolithic run must not see it at all.
func TestTabularGreedyWorkerCountIrrelevant(t *testing.T) {
	c := difftest.Case{Name: "worker-grid", Chargers: 6, Tasks: 24,
		Duration: [2]int{4, 10}, Releases: 5, Colors: 3, Samples: 9, Seed: 42}
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.TabularGreedy(p, c.Options(1))
	for _, w := range []int{2, 3, 4, 5, 7, 16, 64} {
		got := core.TabularGreedy(p, c.Options(w))
		if err := difftest.CompareResults(ref, got); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}

// TestCompareResultsDetectsDivergence guards the harness itself: a flipped
// policy cell and a perturbed utility must both be reported.
func TestCompareResultsDetectsDivergence(t *testing.T) {
	c := difftest.Sweep()[0]
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.TabularGreedy(p, c.Options(1))
	if err := difftest.CompareResults(ref, ref); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	mut := core.Result{Schedule: ref.Schedule.Clone(), RUtility: ref.RUtility}
	rng := rand.New(rand.NewSource(1))
	i := rng.Intn(len(mut.Schedule.Policy))
	k := rng.Intn(len(mut.Schedule.Policy[i]))
	mut.Schedule.Policy[i][k]++
	if err := difftest.CompareResults(ref, mut); err == nil {
		t.Error("flipped policy cell not detected")
	}

	mut = core.Result{Schedule: ref.Schedule.Clone(), RUtility: math.Nextafter(ref.RUtility, 2)}
	if err := difftest.CompareResults(ref, mut); err == nil {
		t.Error("one-ulp utility drift not detected")
	}
}
