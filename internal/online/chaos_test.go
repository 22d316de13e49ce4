package online

import (
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/workload"
)

// Seeded chaos-sweep harness: drive the full online stack through a grid
// of failure modes and rates and assert the three robustness invariants
// of the negotiation protocol (see DESIGN.md §3 and EXPERIMENTS.md):
//
//  1. every run terminates and yields a utility in [0, 1];
//  2. on the pinned scenarios no faulty run beats the failure-free run
//     (failures can only destroy information, and the seeds are chosen
//     so greedy tie-break luck does not mask that);
//  3. the per-negotiation stats reconcile exactly with the network-level
//     totals at every failure rate — the Fig. 16 quantities stay honest
//     under degradation.
//
// The reliability recovery claim (drop-rate 10% back to ≥ 99% of
// failure-free) is pinned separately in TestReliabilityRecoversUtility.

// chaosWorkload is denser than onlineWorkload — enough charger contention
// that lost UPD commits actually cost utility.
func chaosWorkload(seed int64) *core.Problem {
	cfg := workload.SmallScale()
	cfg.NumChargers = 20
	cfg.NumTasks = 30
	cfg.FieldSide = 12
	cfg.ReleaseMax = 4
	cfg.DurationMin, cfg.DurationMax = 2, 6
	cfg.Params.ReceiveAngle = geom.Deg(150)
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		panic(err)
	}
	return p
}

// chaosSeeds are pinned: each one degrades at 10% drop without the
// reliability layer and satisfies the never-exceeds-failure-free
// invariant across the whole failure grid (verified when they were
// chosen; the tests below keep them honest).
var chaosSeeds = []int64{603, 614, 622}

// chaosGrid is the failure-mode grid of the sweep.
func chaosGrid(short bool) []Options {
	if short {
		return []Options{
			{DropRate: 0.1},
			{DelayRate: 0.3},
			{CrashRate: 0.03},
			{DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, CrashRate: 0.02},
		}
	}
	return []Options{
		{DropRate: 0.05},
		{DropRate: 0.1},
		{DropRate: 0.3},
		{DupRate: 0.2},
		{DelayRate: 0.3},
		{CrashRate: 0.03},
		{DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, CrashRate: 0.02},
	}
}

func reconcileStats(t *testing.T, label string, s Stats) {
	t.Helper()
	if got, want := s.TotalMessages(), s.Net.Messages; got != want {
		t.Errorf("%s: per-negotiation messages %d != network messages %d", label, got, want)
	}
	if got, want := s.TotalRounds(), s.Net.Rounds; got != want {
		t.Errorf("%s: per-negotiation rounds %d != network rounds %d", label, got, want)
	}
}

func TestChaosSweepInvariants(t *testing.T) {
	seeds := chaosSeeds
	if testing.Short() {
		seeds = chaosSeeds[:1]
	}
	for _, seed := range seeds {
		p := chaosWorkload(seed)
		clean := mustRun(t, p, Options{Seed: seed})
		reconcileStats(t, "failure-free", clean.Stats)
		for _, o := range chaosGrid(testing.Short()) {
			for _, reliable := range []bool{false, true} {
				o := o
				o.Seed = seed
				o.Reliable = reliable
				res := mustRun(t, p, o) // invariant 1: must terminate
				label := "chaos"
				if reliable {
					label = "chaos+reliable"
				}
				u := res.Outcome.Utility
				if u < 0 || u > 1+1e-9 {
					t.Errorf("%s seed=%d %+v: utility %v out of range", label, seed, o, u)
				}
				// Invariant 2: failures never beat the failure-free run.
				if u > clean.Outcome.Utility+1e-9 {
					t.Errorf("%s seed=%d %+v: utility %v exceeds failure-free %v",
						label, seed, o, u, clean.Outcome.Utility)
				}
				// Invariant 3: stats accounting stays exact.
				reconcileStats(t, label, res.Stats)
				if o.DropRate == 0 && res.Stats.Net.Dropped != 0 {
					t.Errorf("%s seed=%d: drops fired with DropRate=0", label, seed)
				}
				if !reliable && res.Stats.Retransmits != 0 {
					t.Errorf("%s seed=%d: retransmits without the reliability layer", label, seed)
				}
			}
		}
	}
}

// TestReliabilityRecoversUtility pins the recovery claim from
// EXPERIMENTS.md: at 10% drop rate the no-reliability baseline loses
// utility on every pinned scenario, the reliability layer is strictly
// better on aggregate, and it recovers to at least 99% of failure-free
// per scenario.
func TestReliabilityRecoversUtility(t *testing.T) {
	var cleanSum, lossySum, relSum float64
	for _, seed := range chaosSeeds {
		p := chaosWorkload(seed)
		clean := mustRun(t, p, Options{Seed: seed}).Outcome.Utility
		lossy := mustRun(t, p, Options{Seed: seed, DropRate: 0.1}).Outcome.Utility
		rel := mustRun(t, p, Options{Seed: seed, DropRate: 0.1, Reliable: true}).Outcome.Utility
		cleanSum += clean
		lossySum += lossy
		relSum += rel
		if rel < 0.99*clean {
			t.Errorf("seed=%d: reliable utility %v below 99%% of failure-free %v", seed, rel, clean)
		}
	}
	if lossySum >= cleanSum {
		t.Errorf("scenarios degenerate: baseline at 10%% drop (%v) does not degrade vs failure-free (%v)",
			lossySum, cleanSum)
	}
	if relSum <= lossySum {
		t.Errorf("reliability layer did not improve on the baseline at 10%% drop: %v vs %v", relSum, lossySum)
	}
}

// With zero failure rates the reliability layer must commit exactly the
// same tuples as the base protocol: same schedule, same utility — the
// only difference is the ack traffic.
func TestReliableFailureFreeMatchesBaseline(t *testing.T) {
	for _, seed := range []int64{603, 111} {
		var p *core.Problem
		if seed == 603 {
			p = chaosWorkload(seed)
		} else {
			p = mustProblemChaos(t, seed)
		}
		base := mustRun(t, p, Options{Seed: seed})
		rel := mustRun(t, p, Options{Seed: seed, Reliable: true})
		if base.Outcome.Utility != rel.Outcome.Utility {
			t.Errorf("seed=%d: reliable failure-free utility %v != baseline %v",
				seed, rel.Outcome.Utility, base.Outcome.Utility)
		}
		for i := range base.Orientations {
			for k := range base.Orientations[i] {
				bv, rv := base.Orientations[i][k], rel.Orientations[i][k]
				if (bv != rv) && !(bv != bv && rv != rv) { // NaN-tolerant compare
					t.Fatalf("seed=%d: schedule diverges at charger %d slot %d: %v vs %v", seed, i, k, bv, rv)
				}
			}
		}
		if rel.Stats.UnackedCommits != 0 {
			t.Errorf("seed=%d: unacked commits on a lossless network: %d", seed, rel.Stats.UnackedCommits)
		}
		if rel.Stats.Net.Messages <= base.Stats.Net.Messages {
			t.Errorf("seed=%d: expected ack traffic on top of baseline (%d <= %d)",
				seed, rel.Stats.Net.Messages, base.Stats.Net.Messages)
		}
	}
}

func mustProblemChaos(t *testing.T, seed int64) *core.Problem {
	t.Helper()
	return mustProblem(t, onlineWorkload(seed))
}

// TestChaosDriverEquivalence extends the driver-equivalence contract to
// every failure mode: injection draws happen outside the stepping fan, so
// a goroutine-per-charger fan (concurrentFactory) must match the
// sequential engine bit for bit — schedules and every counter — under
// chaos too. CI runs this under the race detector.
func TestChaosDriverEquivalence(t *testing.T) {
	seed := chaosSeeds[0]
	p := chaosWorkload(seed)
	grid := chaosGrid(true)
	for gi, o := range grid {
		for _, reliable := range []bool{false, true} {
			o := o
			o.Seed = seed
			o.Reliable = reliable
			seq := mustRun(t, p, o)
			o.Driver = concurrentFactory
			par := mustRun(t, p, o)
			if seq.Outcome.Utility != par.Outcome.Utility {
				t.Errorf("grid[%d] reliable=%v: utility diverges: %v vs %v",
					gi, reliable, seq.Outcome.Utility, par.Outcome.Utility)
			}
			if seq.Stats.Net != par.Stats.Net {
				t.Errorf("grid[%d] reliable=%v: network stats diverge: %+v vs %+v",
					gi, reliable, seq.Stats.Net, par.Stats.Net)
			}
			if seq.Stats.NonQuiescentSessions != par.Stats.NonQuiescentSessions ||
				seq.Stats.UnackedCommits != par.Stats.UnackedCommits ||
				seq.Stats.Retransmits != par.Stats.Retransmits {
				t.Errorf("grid[%d] reliable=%v: degradation stats diverge: %+v vs %+v",
					gi, reliable, seq.Stats, par.Stats)
			}
			for i := range seq.Orientations {
				for k := range seq.Orientations[i] {
					sv, pv := seq.Orientations[i][k], par.Orientations[i][k]
					if (sv != pv) && !(sv != sv && pv != pv) {
						t.Fatalf("grid[%d] reliable=%v: schedule diverges at charger %d slot %d: %v vs %v",
							gi, reliable, i, k, sv, pv)
					}
				}
			}
		}
	}
}
