package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"haste/internal/obs"
	"haste/internal/workload"
)

// A ShardAuto run on a many-component fleet compiles only its
// components: the compile trees carry no dominant extraction or kernel
// compile, and the Problem's monolith stays unbuilt. A later Evaluate
// builds it, equals RUtility bit for bit, and the lazily built Gamma and
// kernel equal a monolith built straight after NewProblem, field by
// field. Every cached sub-Problem, whose rows were sliced out of the
// parent's, equals NewProblem of its sub-instance.
func TestShardAutoSkipsMonolith(t *testing.T) {
	in := workload.FleetScale(2000).Generate(rand.New(rand.NewSource(5)))
	tr := obs.New()
	p, err := NewProblemTraced(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(1)
	opt.Trace = tr
	res := TabularGreedy(p, opt)
	if res.Shards < DefaultShardThreshold {
		t.Fatalf("fleet did not shard: %d shards", res.Shards)
	}
	for _, root := range tr.Tree() {
		for _, phase := range []string{"dominant_extract", "kernel_compile"} {
			if root.Name == "compile" && len(childrenNamed(root, phase)) > 0 {
				t.Fatalf("sharded run recorded a top-level %s span", phase)
			}
		}
	}
	if p.monoBuilt.Load() {
		t.Fatal("sharded run built the monolithic Gamma and kernel")
	}

	comps, slots := p.Components(), *p.subs.Load()
	for ci, comp := range comps {
		sub := slots[ci].p.Load()
		if len(comp.Chargers) == 0 || len(comp.Tasks) == 0 {
			if sub != nil {
				t.Fatalf("component %d has no chargers or tasks but a sub-Problem", ci)
			}
			continue
		}
		requireProblemsEqual(t, sub, mustProblem(t, sliceInstance(in, comp)))
	}

	if got := Evaluate(p, res.Schedule); got != res.RUtility {
		t.Fatalf("Evaluate = %.17g, RUtility = %.17g", got, res.RUtility)
	}
	eager := mustProblem(t, in)
	eager.monolith()
	requireProblemsEqual(t, p, eager)
	if p.StatesInUse() != 0 {
		t.Fatalf("%d pooled states in use", p.StatesInUse())
	}
}

// bridgeTask returns a task of p whose removal splits its component in
// two — and so whose addition merges two components — or -1.
func bridgeTask(t *testing.T, p *Problem) int {
	t.Helper()
	before := p.SchedulableComponents()
	for j := range p.In.Tasks {
		c := p.CloneCompiled()
		if err := c.RemoveTask(j); err != nil {
			t.Fatal(err)
		}
		if c.SchedulableComponents() > before {
			return j
		}
	}
	return -1
}

// Delta operations on a clone whose monolith was never built patch only
// rows, the task table and K, and leave it unbuilt; once built, it equals
// NewProblem of the mutated instance. The walk starts with a RemoveTask
// that splits a component and an AddTask of the same task that merges
// the halves again, then continues at random, re-solving sharded after
// every step: each solve equals a fresh solve of the mutated instance,
// and leaks no pooled state.
func TestDeltaOpsOnUnbuiltProblem(t *testing.T) {
	base := shardProblem(t, 61, 4, 12, 40)
	if base.monoBuilt.Load() {
		t.Fatal("NewProblem built the monolith")
	}
	bridge := bridgeTask(t, base)
	if bridge < 0 {
		t.Fatal("no task of the instance splits its component")
	}
	p := base.CloneCompiled()
	if p.monoBuilt.Load() || base.monoBuilt.Load() {
		t.Fatal("CloneCompiled built a monolith")
	}
	mirror := copyInstance(p.In)
	rng := rand.New(rand.NewSource(62))
	opt := Options{Colors: 2, PreferStay: true, Workers: 2, Shard: ShardOn}
	TabularGreedy(p, opt) // caches sub-Problems the walk then adopts or drops

	for step := 0; step < 24; step++ {
		comps := p.SchedulableComponents()
		switch {
		case step == 0:
			task := mirror.Tasks[bridge]
			if err := p.RemoveTask(bridge); err != nil {
				t.Fatal(err)
			}
			mirrorRemove(mirror, bridge)
			if p.SchedulableComponents() != comps+1 {
				t.Fatalf("removing the bridge task left %d components, want %d", p.SchedulableComponents(), comps+1)
			}
			if err := p.AddTask(task); err != nil {
				t.Fatal(err)
			}
			mirrorAdd(mirror, task)
			if p.SchedulableComponents() != comps {
				t.Fatalf("re-adding the bridge task left %d components, want %d", p.SchedulableComponents(), comps)
			}
		case rng.Intn(2) == 0 || len(mirror.Tasks) < 4:
			task := randomTask(mirror, rng)
			if err := p.AddTask(task); err != nil {
				t.Fatal(err)
			}
			mirrorAdd(mirror, task)
		default:
			id := rng.Intn(len(mirror.Tasks))
			if err := p.RemoveTask(id); err != nil {
				t.Fatal(err)
			}
			mirrorRemove(mirror, id)
		}
		if p.monoBuilt.Load() {
			t.Fatalf("step %d: a delta op built the monolith", step)
		}
		fresh := mustProblem(t, copyInstance(mirror))

		opt.Rng = rand.New(rand.NewSource(int64(step)))
		got := TabularGreedy(p, opt)
		opt.Rng = rand.New(rand.NewSource(int64(step)))
		want := TabularGreedy(fresh, opt)
		if err := compareSchedules(want.Schedule, got.Schedule); err != nil {
			t.Fatalf("step %d: re-solve diverges from a fresh solve: %v", step, err)
		}
		if got.RUtility != want.RUtility || got.Shards != want.Shards {
			t.Fatalf("step %d: re-solve %v/%d shards, fresh %v/%d", step, got.RUtility, got.Shards, want.RUtility, want.Shards)
		}
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("step %d: %d pooled states in use", step, n)
		}
		// Force the build on a probe clone, so the walk stays unbuilt.
		probe := p.CloneCompiled()
		requireProblemsEqual(t, probe, fresh)
	}
	p.monolith()
	requireProblemsEqual(t, p, mustProblem(t, copyInstance(mirror)))
	if n := p.StatesInUse(); n != 0 {
		t.Fatalf("%d pooled states in use", n)
	}
}

// allocBudgetShardAuto bounds the heap allocations of compiling a
// FleetScale(10_000) instance (seed 1) and scheduling it ShardAuto,
// Workers = 1. It sits 5% above the 44_417 measured once dominant
// extraction stopped building fmt.Sprint keys and per-set maps and began
// reusing pooled buffers, and every Problem got its state pool as its own
// allocation. Before that it was 186_887, with component rows sliced out
// of the parent's; the eager compile took 355_435.
const allocBudgetShardAuto = 46_640

// The sharded path's allocation saving is gated on a deterministic count
// rather than on wall time. Workers = 1 and a stopped GC keep the count
// exact: no goroutine migrates between pooled-state Put and Get, and no
// collection empties a pool mid-run.
func TestShardAutoAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a 10^4-task fleet; alloc counts need a non-race build")
	}
	in := workload.FleetScale(10_000).Generate(rand.New(rand.NewSource(1)))
	opt := DefaultOptions(1)
	opt.Workers = 1
	run := func() {
		p, err := NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		if res := TabularGreedy(p, opt); res.Shards == 0 {
			t.Fatal("fleet did not shard")
		}
	}
	run()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("NewProblem + ShardAuto TabularGreedy on FleetScale(10_000): %.0f allocs (budget %d)", allocs, allocBudgetShardAuto)
	if allocs > allocBudgetShardAuto {
		t.Fatalf("%.0f allocs, budget %d", allocs, allocBudgetShardAuto)
	}
}
