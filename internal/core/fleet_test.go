package core

import (
	"math/rand"
	"reflect"
	"testing"

	"haste/internal/model"
	"haste/internal/workload"
)

// TestScheduleShardedMatchesParent pins the equivalence contract of the
// instance-direct fleet path against the parent-Problem sharded path:
// identical seeds must produce bit-identical schedule cells, the same
// shard count and the same RUtility — which is also exactly Evaluate of
// the schedule on the compiled parent problem.
func TestScheduleShardedMatchesParent(t *testing.T) {
	fleet400 := workload.FleetScale(400)
	instances := []struct {
		name string
		gen  func(seed int64) *model.Instance
	}{
		{"clustered", func(seed int64) *model.Instance { return shardProblem(t, seed, 6, 12, 40).In }},
		{"fleet400", func(seed int64) *model.Instance { return fleet400.Generate(rand.New(rand.NewSource(seed))) }},
	}
	for _, tc := range instances {
		name, gen := tc.name, tc.gen
		for _, colors := range []int{1, 3} {
			for seed := int64(901); seed < 904; seed++ {
				p := mustProblem(t, gen(seed))

				optParent := DefaultOptions(colors)
				optParent.Rng = rand.New(rand.NewSource(seed))
				optParent.Shard = ShardOn
				optParent.Workers = 3
				parent := TabularGreedy(p, optParent)

				optFleet := DefaultOptions(colors)
				optFleet.Rng = rand.New(rand.NewSource(seed))
				optFleet.Workers = 3
				fleet, err := ScheduleSharded(p.In, optFleet)
				if err != nil {
					t.Fatalf("%s colors=%d seed=%d: ScheduleSharded: %v", name, colors, seed, err)
				}

				if fleet.Shards != parent.Shards {
					t.Fatalf("%s colors=%d seed=%d: shards %d != parent %d", name, colors, seed, fleet.Shards, parent.Shards)
				}
				if !reflect.DeepEqual(fleet.Schedule.Policy, parent.Schedule.Policy) {
					t.Fatalf("%s colors=%d seed=%d: fleet schedule cells diverge from parent sharded run", name, colors, seed)
				}
				if fleet.RUtility != parent.RUtility {
					t.Fatalf("%s colors=%d seed=%d: fleet RUtility %.17g != parent RUtility %.17g",
						name, colors, seed, fleet.RUtility, parent.RUtility)
				}
				if got := Evaluate(p, fleet.Schedule); got != parent.RUtility {
					t.Fatalf("%s colors=%d seed=%d: Evaluate(fleet schedule) = %.17g, parent RUtility = %.17g",
						name, colors, seed, got, parent.RUtility)
				}
			}
		}
	}
}

// TestScheduleShardedDegenerate: empty and taskless instances return an
// empty schedule without error.
func TestScheduleShardedDegenerate(t *testing.T) {
	p := shardProblem(t, 901, 2, 4, 8)
	in := *p.In
	in.Tasks = nil
	res, err := ScheduleSharded(&in, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 0 || res.RUtility != 0 {
		t.Fatalf("taskless instance: got %d shards, utility %g", res.Shards, res.RUtility)
	}
}
