package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"haste/internal/core"
	"haste/internal/sim"
	"haste/internal/workload"
)

// firstUse is what every caller of the race test computes on one Problem.
type firstUse struct {
	mono, sharded core.Result
	eval          float64
	exec          sim.Outcome
	clone         *core.Problem
}

// The first use of a fresh Problem may come from several goroutines at
// once — the service's problem cache hands one compiled Problem to every
// concurrent request. A monolithic and a sharded solve, an Evaluate, a
// sim.Execute and a CloneCompiled started together on an unbuilt Problem
// must all see the results they see on a Problem used by one caller, and
// leave no pooled state checked out. CI runs this under -race.
func TestConcurrentFirstUse(t *testing.T) {
	gen := workload.FleetScale(400)
	for seed := int64(1); seed <= 4; seed++ {
		in := gen.Generate(rand.New(rand.NewSource(seed)))
		opt := func(mode core.ShardMode) core.Options {
			return core.Options{Colors: 2, PreferStay: true, Workers: 2, Shard: mode,
				Rng: rand.New(rand.NewSource(seed))}
		}

		ref, err := core.NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		var want firstUse
		want.mono = core.TabularGreedy(ref, opt(core.ShardOff))
		want.sharded = core.TabularGreedy(ref, opt(core.ShardOn))
		want.eval = core.Evaluate(ref, want.mono.Schedule)
		want.exec = sim.Execute(ref, want.mono.Schedule)

		p, err := core.NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		var got firstUse
		var monoErr, shardErr error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, call := range []func(){
			func() { got.mono, monoErr = core.TabularGreedyCtx(context.Background(), p, opt(core.ShardOff)) },
			func() { got.sharded, shardErr = core.TabularGreedyCtx(context.Background(), p, opt(core.ShardOn)) },
			func() { got.eval = core.Evaluate(p, want.mono.Schedule) },
			func() { got.exec = sim.Execute(p, want.mono.Schedule) },
			func() { got.clone = p.CloneCompiled() },
		} {
			wg.Add(1)
			go func(call func()) {
				defer wg.Done()
				<-start
				call()
			}(call)
		}
		close(start)
		wg.Wait()

		if monoErr != nil || shardErr != nil {
			t.Fatalf("seed %d: solve errors %v, %v", seed, monoErr, shardErr)
		}
		for _, r := range []struct {
			name      string
			got, want core.Result
		}{{"ShardOff", got.mono, want.mono}, {"ShardOn", got.sharded, want.sharded}} {
			if !reflect.DeepEqual(r.got.Schedule, r.want.Schedule) || r.got.RUtility != r.want.RUtility || r.got.Shards != r.want.Shards {
				t.Fatalf("seed %d: concurrent %s solve diverges: %v/%d shards, want %v/%d",
					seed, r.name, r.got.RUtility, r.got.Shards, r.want.RUtility, r.want.Shards)
			}
		}
		if got.eval != want.eval {
			t.Fatalf("seed %d: concurrent Evaluate = %v, want %v", seed, got.eval, want.eval)
		}
		if !reflect.DeepEqual(got.exec, want.exec) {
			t.Fatalf("seed %d: concurrent sim.Execute diverges: %v/%d switches, want %v/%d",
				seed, got.exec.Utility, got.exec.Switches, want.exec.Utility, want.exec.Switches)
		}
		// The clone, built or not when it was taken, solves like p.
		if res := core.TabularGreedy(got.clone, opt(core.ShardOff)); !reflect.DeepEqual(res.Schedule, want.mono.Schedule) || res.RUtility != want.mono.RUtility {
			t.Fatalf("seed %d: the concurrent clone solves differently", seed)
		}
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("seed %d: %d pooled states in use", seed, n)
		}
		if n := got.clone.StatesInUse(); n != 0 {
			t.Fatalf("seed %d: %d pooled states in use on the clone", seed, n)
		}
	}
}
