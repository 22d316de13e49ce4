package core

import (
	"math/rand"
	"testing"

	"haste/internal/model"
	"haste/internal/workload"
)

// TestScheduleShardedMatchesParent pins the stitch's utility contract on
// clustered and fleet-shaped instances: a ShardOn run schedules every
// schedulable component, and its RUtility — summed from the component
// runs' cell gains, without a monolithic kernel — is exactly Evaluate of
// the stitched schedule on the compiled parent problem.
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
				opt := DefaultOptions(colors)
				opt.Rng = rand.New(rand.NewSource(seed))
				opt.Shard = ShardOn
				opt.Workers = 3
				res := TabularGreedy(p, opt)

				if res.Shards == 0 || res.Shards != p.SchedulableComponents() {
					t.Fatalf("%s colors=%d seed=%d: %d shards, instance has %d schedulable components",
						name, colors, seed, res.Shards, p.SchedulableComponents())
				}
				if got := Evaluate(p, res.Schedule); got != res.RUtility {
					t.Fatalf("%s colors=%d seed=%d: Evaluate(stitched schedule) = %.17g, RUtility = %.17g",
						name, colors, seed, got, res.RUtility)
				}
			}
		}
	}
}

// TestScheduleShardedDegenerate: a sharded run of a taskless instance
// returns an empty schedule with no shards and zero utility.
func TestScheduleShardedDegenerate(t *testing.T) {
	in := *shardProblem(t, 901, 2, 4, 8).In
	in.Tasks = nil
	p, err := NewProblem(&in)
	if err != nil {
		t.Fatal(err)
	}
	res := TabularGreedy(p, Options{Colors: 1, PreferStay: true, Shard: ShardOn})
	if res.Shards != 0 || res.RUtility != 0 {
		t.Fatalf("taskless instance: got %d shards, utility %g", res.Shards, res.RUtility)
	}
}
