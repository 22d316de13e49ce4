package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
)

// randomTask builds a valid task placed near a random charger (so it
// usually lands inside some charger's radius and actually perturbs the
// compiled structures), with id left for AddTask to assign.
func randomTask(in *model.Instance, rng *rand.Rand) model.Task {
	c := in.Chargers[rng.Intn(len(in.Chargers))]
	r := in.Params.Radius
	rel := rng.Intn(8)
	dur := 2*in.Params.Tau + 2 + rng.Intn(8)
	return model.Task{
		Pos: geom.Point{
			X: c.Pos.X + (rng.Float64()*2-1)*1.5*r,
			Y: c.Pos.Y + (rng.Float64()*2-1)*1.5*r,
		},
		Phi:     rng.Float64() * 6.28,
		Release: rel,
		End:     rel + dur,
		Energy:  1e3 + rng.Float64()*5e3,
		Weight:  rng.Float64() * 3,
	}
}

// mirrorAdd applies AddTask's instance-level effect to a plain copy.
func mirrorAdd(in *model.Instance, t model.Task) {
	t.ID = len(in.Tasks)
	in.Tasks = append(in.Tasks, t)
}

// mirrorRemove applies RemoveTask's swap-remove to a plain copy.
func mirrorRemove(in *model.Instance, id int) {
	last := len(in.Tasks) - 1
	in.Tasks[id] = in.Tasks[last]
	in.Tasks[id].ID = id
	in.Tasks = in.Tasks[:last]
}

func copyInstance(in *model.Instance) *model.Instance {
	return &model.Instance{
		Chargers: in.Chargers,
		Tasks:    append([]model.Task(nil), in.Tasks...),
		Params:   in.Params,
		Utility:  in.Utility,
	}
}

// requireProblemsEqual asserts that a delta-patched problem is
// bit-identical to a from-scratch compile of the same instance, across
// every compiled structure the schedulers read.
func requireProblemsEqual(t *testing.T, got, want *Problem) {
	t.Helper()
	if got.K != want.K {
		t.Fatalf("K = %d, want %d", got.K, want.K)
	}
	if !reflect.DeepEqual(got.In.Tasks, want.In.Tasks) {
		t.Fatalf("task tables differ")
	}
	for i := range want.In.Chargers {
		gr, wr := got.ChargerRow(i), want.ChargerRow(i)
		if len(gr) == 0 && len(wr) == 0 {
			continue
		}
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("charger %d row differs:\n got %v\nwant %v", i, gr, wr)
		}
		if !reflect.DeepEqual(got.Gamma()[i], want.Gamma()[i]) {
			t.Fatalf("charger %d Gamma differs", i)
		}
	}
	gk, wk := &got.kern, &want.kern
	gm, wm := got.monolith(), want.monolith()
	if !reflect.DeepEqual(gm.polOff, wm.polOff) {
		t.Fatalf("polOff differs")
	}
	for fp := range wm.entries {
		if len(gm.entries[fp]) == 0 && len(wm.entries[fp]) == 0 {
			continue
		}
		if !reflect.DeepEqual(gm.entries[fp], wm.entries[fp]) {
			t.Fatalf("flat policy %d entries differ:\n got %v\nwant %v", fp, gm.entries[fp], wm.entries[fp])
		}
	}
	if !reflect.DeepEqual(gm.winLo, wm.winLo) || !reflect.DeepEqual(gm.winHi, wm.winHi) {
		t.Fatalf("policy windows differ")
	}
	for _, cmp := range []struct {
		name string
		g, w any
	}{
		{"weight", gk.weight, wk.weight}, {"req", gk.req, wk.req},
		{"release", gk.release, wk.release}, {"end", gk.end, wk.end},
	} {
		if !reflect.DeepEqual(cmp.g, cmp.w) {
			t.Fatalf("SoA column %s differs", cmp.name)
		}
	}
}

// TestIncrementalEquivalenceWalk drives a random add/remove walk through
// the delta operations, and after every step checks the patched problem is
// bit-identical — rows, Gamma, kernel, K — to NewProblem of the mutated
// instance, and periodically that both schedule identically.
func TestIncrementalEquivalenceWalk(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		p := shardProblem(t, seed, 3, 8, 20)
		mirror := copyInstance(p.In)
		rng := rand.New(rand.NewSource(seed * 7))
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 || len(mirror.Tasks) < 4 {
				task := randomTask(mirror, rng)
				if err := p.AddTask(task); err != nil {
					t.Fatalf("seed %d step %d: AddTask: %v", seed, step, err)
				}
				mirrorAdd(mirror, task)
			} else {
				id := rng.Intn(len(mirror.Tasks))
				if err := p.RemoveTask(id); err != nil {
					t.Fatalf("seed %d step %d: RemoveTask: %v", seed, step, err)
				}
				mirrorRemove(mirror, id)
			}
			fresh, err := NewProblem(copyInstance(mirror))
			if err != nil {
				t.Fatalf("seed %d step %d: NewProblem: %v", seed, step, err)
			}
			requireProblemsEqual(t, p, fresh)
			if step%10 == 9 {
				opt := Options{Colors: 2, Samples: 4, PreferStay: true, Workers: 1,
					Rng: rand.New(rand.NewSource(99)), Shard: ShardOn}
				fopt := opt
				fopt.Rng = rand.New(rand.NewSource(99))
				got := TabularGreedy(p, opt)
				want := TabularGreedy(fresh, fopt)
				if got.RUtility != want.RUtility {
					t.Fatalf("seed %d step %d: RUtility %v != %v", seed, step, got.RUtility, want.RUtility)
				}
				if !reflect.DeepEqual(got.Schedule.Policy, want.Schedule.Policy) {
					t.Fatalf("seed %d step %d: schedules diverge", seed, step)
				}
			}
		}
	}
}

// TestAddTaskRejectsInvalid pins that the delta op validates like
// NewProblem: non-finite and malformed tasks are refused and the problem
// is left untouched.
func TestAddTaskRejectsInvalid(t *testing.T) {
	p := shardProblem(t, 5, 2, 4, 10)
	fresh, _ := NewProblem(copyInstance(p.In))
	bad := []model.Task{
		{Pos: geom.Point{X: math.NaN(), Y: 0}, Release: 0, End: 6, Energy: 1e3, Weight: 1},
		{Pos: geom.Point{X: 1, Y: 2}, Release: 0, End: 6, Energy: math.Inf(1), Weight: 1},
		{Pos: geom.Point{X: 1, Y: 2}, Release: 0, End: 6, Energy: 1e3, Weight: -1},
		{Pos: geom.Point{X: 1, Y: 2}, Release: 4, End: 4, Energy: 1e3, Weight: 1},
	}
	for idx, task := range bad {
		if err := p.AddTask(task); err == nil {
			t.Fatalf("bad task %d: AddTask accepted %+v", idx, task)
		}
	}
	requireProblemsEqual(t, p, fresh)
}

// TestCloneCompiledIsolation pins copy-on-write: mutating a clone leaves
// the original problem bit-identical to an untouched compile, and the
// clone matches a from-scratch compile of the mutated instance.
func TestCloneCompiledIsolation(t *testing.T) {
	p := shardProblem(t, 11, 3, 6, 16)
	pristine, _ := NewProblem(copyInstance(p.In))
	clone := p.CloneCompiled()
	requireProblemsEqual(t, clone, pristine)

	mirror := copyInstance(p.In)
	rng := rand.New(rand.NewSource(4))
	task := randomTask(mirror, rng)
	if err := clone.AddTask(task); err != nil {
		t.Fatal(err)
	}
	mirrorAdd(mirror, task)
	if err := clone.RemoveTask(2); err != nil {
		t.Fatal(err)
	}
	mirrorRemove(mirror, 2)

	requireProblemsEqual(t, p, pristine) // original untouched
	mutated, err := NewProblem(mirror)
	if err != nil {
		t.Fatal(err)
	}
	requireProblemsEqual(t, clone, mutated)
}

// TestWarmStartBitIdentical pins the warm-start contract: re-solving a
// mutated clone — whose untouched sub-Problems remember their last
// component run — is bit-identical to a cold solve of the mutated
// problem, and actually reuses untouched components.
func TestWarmStartBitIdentical(t *testing.T) {
	p := shardProblem(t, 21, 4, 10, 28).CloneCompiled()
	mirror := copyInstance(p.In)
	opt := func() Options {
		return Options{Colors: 3, Samples: 6, PreferStay: true, Workers: 1,
			Rng: rand.New(rand.NewSource(7)), Shard: ShardOn}
	}
	TabularGreedy(p, opt())
	rng := rand.New(rand.NewSource(13))
	reusedTotal := 0
	for step := 0; step < 12; step++ {
		var err error
		if rng.Intn(2) == 0 {
			task := randomTask(mirror, rng)
			err = p.AddTask(task)
			mirrorAdd(mirror, task)
		} else {
			id := rng.Intn(len(mirror.Tasks))
			err = p.RemoveTask(id)
			mirrorRemove(mirror, id)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		got := TabularGreedy(p, opt())
		fresh, err := NewProblem(copyInstance(mirror))
		if err != nil {
			t.Fatal(err)
		}
		want := TabularGreedy(fresh, opt())
		if got.RUtility != want.RUtility {
			t.Fatalf("step %d: RUtility %v != %v", step, got.RUtility, want.RUtility)
		}
		if !reflect.DeepEqual(got.Schedule.Policy, want.Schedule.Policy) {
			t.Fatalf("step %d: warm schedule diverges from cold", step)
		}
		if want.WarmReused != 0 {
			t.Fatalf("step %d: a fresh compile adopted %d components", step, want.WarmReused)
		}
		reusedTotal += got.WarmReused
	}
	if reusedTotal == 0 {
		t.Fatal("no component was ever reused — warm start is vacuous")
	}
}

// TestWarmStartOnlyOnClones pins the memo's scope: a problem made by
// NewProblem keeps no component runs, so re-solving it — even with
// identical options — adopts nothing, while the same re-solve on a clone
// adopts every component.
func TestWarmStartOnlyOnClones(t *testing.T) {
	p := shardProblem(t, 33, 4, 10, 28)
	opt := Options{Colors: 2, PreferStay: true, Workers: 2, Shard: ShardOn}
	first, again := TabularGreedy(p, opt), TabularGreedy(p, opt)
	if first.WarmReused != 0 || again.WarmReused != 0 {
		t.Fatalf("plain problem adopted components: %d then %d", first.WarmReused, again.WarmReused)
	}
	clone := p.CloneCompiled()
	TabularGreedy(clone, opt)
	if got := TabularGreedy(clone, opt); got.WarmReused != got.Shards || got.Shards < 2 {
		t.Fatalf("clone re-solve adopted %d of %d components", got.WarmReused, got.Shards)
	}
}

// TestWarmStartConcurrentSeeds: concurrent sharded solves with different
// seeds at Colors > 1 on one clone store and adopt component runs
// concurrently; each must still equal a solve of a fresh compile with the
// same seed (a run only adopts a record whose plan slice equals its own).
// Run under -race, it also pins the memo's publication as race-free.
func TestWarmStartConcurrentSeeds(t *testing.T) {
	base := shardProblem(t, 44, 4, 12, 60)
	clone := base.CloneCompiled()
	fresh, err := NewProblem(copyInstance(base.In))
	if err != nil {
		t.Fatal(err)
	}
	opt := func(seed int64) Options {
		return Options{Colors: 3, Samples: 6, PreferStay: true, Workers: 2,
			Rng: rand.New(rand.NewSource(seed)), Shard: ShardOn}
	}
	seeds := []int64{1, 2, 3, 1, 2, 3, 1, 2}
	want := make(map[int64]Result)
	for _, seed := range seeds[:3] {
		want[seed] = TabularGreedy(fresh, opt(seed))
	}
	if reflect.DeepEqual(want[1].Schedule.Policy, want[2].Schedule.Policy) {
		t.Fatal("seeds 1 and 2 schedule identically — adopting across seeds would go unnoticed")
	}
	got := make([]Result, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			got[i] = TabularGreedy(clone, opt(seed))
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		w := want[seed]
		if got[i].RUtility != w.RUtility || !reflect.DeepEqual(got[i].Schedule.Policy, w.Schedule.Policy) {
			t.Fatalf("solve %d (seed %d) diverges from the fresh compile: %v vs %v", i, seed, got[i].RUtility, w.RUtility)
		}
	}
}

// TestAcquireStateDropsStale pins that pooled EnergyStates sized for a
// pre-mutation problem are discarded, not resurrected.
func TestAcquireStateDropsStale(t *testing.T) {
	p := shardProblem(t, 9, 2, 4, 12).CloneCompiled()
	es := p.AcquireState()
	es.Apply(0, 0, 0)
	p.ReleaseState(es)

	rng := rand.New(rand.NewSource(2))
	if err := p.AddTask(randomTask(p.In, rng)); err != nil {
		t.Fatal(err)
	}
	es2 := p.AcquireState()
	defer p.ReleaseState(es2)
	if len(es2.energy) != len(p.In.Tasks) {
		t.Fatalf("stale pooled state resurrected: energy len %d, tasks %d",
			len(es2.energy), len(p.In.Tasks))
	}
	if p.StatesInUse() != 1 {
		t.Fatalf("StatesInUse = %d, want 1", p.StatesInUse())
	}
}
