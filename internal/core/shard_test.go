package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/workload"
)

// shardProblem builds a clustered multi-component problem.
func shardProblem(t testing.TB, seed int64, clusters, chargers, tasks int) *Problem {
	t.Helper()
	cfg := workload.Default()
	cfg.NumChargers = chargers
	cfg.NumTasks = tasks
	cfg.DurationMin, cfg.DurationMax = 4, 10
	cfg.ReleaseMax = 6
	cfg.EnergyMin, cfg.EnergyMax = 1e3, 6e3
	cfg.Placement = workload.Clustered
	cfg.NumClusters = clusters
	cfg.Params.Radius = 8
	cfg.ClusterRadius = 6
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkPartition asserts the decomposer's core contract on a problem:
// every charger and every task appears in exactly one component, members
// are ascending, no chargeable pair crosses a component boundary, and
// every component is internally connected under the chargeable relation
// (the decomposer neither splits nor over-merges).
func checkPartition(t *testing.T, p *Problem) {
	t.Helper()
	in := p.In
	n, m := len(in.Chargers), len(in.Tasks)
	comps := p.Components()

	chargerComp := make([]int, n)
	taskComp := make([]int, m)
	for v := range chargerComp {
		chargerComp[v] = -1
	}
	for v := range taskComp {
		taskComp[v] = -1
	}
	for ci, comp := range comps {
		if len(comp.Chargers) == 0 && len(comp.Tasks) == 0 {
			t.Fatalf("component %d is empty", ci)
		}
		for idx, i := range comp.Chargers {
			if idx > 0 && comp.Chargers[idx-1] >= i {
				t.Fatalf("component %d chargers not ascending: %v", ci, comp.Chargers)
			}
			if chargerComp[i] != -1 {
				t.Fatalf("charger %d in components %d and %d", i, chargerComp[i], ci)
			}
			chargerComp[i] = ci
		}
		for idx, j := range comp.Tasks {
			if idx > 0 && comp.Tasks[idx-1] >= j {
				t.Fatalf("component %d tasks not ascending: %v", ci, comp.Tasks)
			}
			if taskComp[j] != -1 {
				t.Fatalf("task %d in components %d and %d", j, taskComp[j], ci)
			}
			taskComp[j] = ci
		}
	}
	for i, ci := range chargerComp {
		if ci == -1 {
			t.Fatalf("charger %d in no component", i)
		}
	}
	for j, cj := range taskComp {
		if cj == -1 {
			t.Fatalf("task %d in no component", j)
		}
	}

	// No chargeable pair — hence no cover entry — crosses a boundary, and
	// chargeable pairs are always in the same component.
	for i, c := range in.Chargers {
		for j, tk := range in.Tasks {
			if in.Params.Chargeable(c, tk) && chargerComp[i] != taskComp[j] {
				t.Fatalf("chargeable pair (charger %d, task %d) spans components %d and %d",
					i, j, chargerComp[i], taskComp[j])
			}
		}
	}

	// Cover lists stay inside their component.
	for i, g := range p.Gamma() {
		for _, pol := range g {
			for _, j := range pol.Covers {
				if chargerComp[i] != taskComp[j] {
					t.Fatalf("cover entry (charger %d, task %d) spans components", i, j)
				}
			}
		}
	}

	// Minimality: each component is connected via chargeable edges (BFS
	// from its first node must reach every member).
	for ci, comp := range comps {
		size := len(comp.Chargers) + len(comp.Tasks)
		if size == 1 {
			continue
		}
		seen := make(map[int]bool, size) // charger i → node i, task j → node n+j
		var frontier []int
		if len(comp.Chargers) > 0 {
			frontier = []int{comp.Chargers[0]}
		} else {
			frontier = []int{n + comp.Tasks[0]}
		}
		seen[frontier[0]] = true
		for len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			if v < n {
				for _, j := range comp.Tasks {
					if !seen[n+j] && in.Params.Chargeable(in.Chargers[v], in.Tasks[j]) {
						seen[n+j] = true
						frontier = append(frontier, n+j)
					}
				}
			} else {
				for _, i := range comp.Chargers {
					if !seen[i] && in.Params.Chargeable(in.Chargers[i], in.Tasks[v-n]) {
						seen[i] = true
						frontier = append(frontier, i)
					}
				}
			}
		}
		if len(seen) != size {
			t.Fatalf("component %d is not connected: reached %d of %d members", ci, len(seen), size)
		}
	}
}

// TestComponentsPartition: the decomposer yields a true partition with
// intra-component connectivity on seeded random geometry — clustered
// fields that genuinely decompose and the paper's dense uniform field.
func TestComponentsPartition(t *testing.T) {
	for seed := int64(301); seed < 306; seed++ {
		p := shardProblem(t, seed, 5, 10, 30)
		if got := len(p.Components()); got < 5 {
			t.Fatalf("seed %d: clustered field gave only %d components", seed, got)
		}
		checkPartition(t, p)
	}
	// Dense uniform field (paper defaults, small): whatever the component
	// structure, the partition contract must hold.
	for seed := int64(311); seed < 314; seed++ {
		cfg := workload.Default()
		cfg.NumChargers, cfg.NumTasks = 8, 24
		in := cfg.Generate(rand.New(rand.NewSource(seed)))
		p, err := NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, p)
	}
}

// degenerateInstance builds a hand-laid instance: chargers on one row,
// tasks on another, with the given params.
func degenerateInstance(params model.Params, n, m int, spacing float64, taskY float64) *model.Instance {
	in := &model.Instance{Params: params}
	for i := 0; i < n; i++ {
		in.Chargers = append(in.Chargers, model.Charger{ID: i, Pos: geom.Point{X: float64(i) * spacing}})
	}
	for j := 0; j < m; j++ {
		in.Tasks = append(in.Tasks, model.Task{
			ID: j, Pos: geom.Point{X: float64(j) * spacing, Y: taskY},
			Phi: 0, Release: 0, End: 4, Energy: 100, Weight: 1,
		})
	}
	return in
}

// TestComponentsDegenerate: the all-isolated and fully-connected extremes.
func TestComponentsDegenerate(t *testing.T) {
	base := model.Params{
		Alpha: 100, Beta: 1, Radius: 1,
		ChargeAngle: geom.Deg(60), ReceiveAngle: geom.TwoPi,
		SlotSeconds: 60, Tau: 1,
	}

	t.Run("all-isolated", func(t *testing.T) {
		// Radius 1, everything ≥ 10 apart: no chargeable pair at all, so
		// every charger and every task is its own singleton component.
		p, err := NewProblem(degenerateInstance(base, 4, 6, 10, 50))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Components()); got != 10 {
			t.Fatalf("components = %d, want 10 singletons", got)
		}
		if got := p.SchedulableComponents(); got != 0 {
			t.Fatalf("schedulable = %d, want 0", got)
		}
		checkPartition(t, p)
		// A forced sharded run on a fully unschedulable instance: empty
		// schedule, zero utility, zero shards.
		res := TabularGreedy(p, Options{Colors: 2, PreferStay: true, Workers: 2, Shard: ShardOn,
			Rng: rand.New(rand.NewSource(1))})
		if res.Shards != 0 || res.RUtility != 0 {
			t.Fatalf("isolated instance: Shards=%d RUtility=%v", res.Shards, res.RUtility)
		}
		for _, row := range res.Schedule.Policy {
			for _, pol := range row {
				if pol != -1 {
					t.Fatalf("isolated instance scheduled a policy: %v", res.Schedule.Policy)
				}
			}
		}
	})

	t.Run("fully-connected", func(t *testing.T) {
		// A radius past every pairwise distance and full-circle receive
		// sectors: one component containing everything.
		params := base
		params.Radius = 1000
		p, err := NewProblem(degenerateInstance(params, 4, 6, 10, 50))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.Components()); got != 1 {
			t.Fatalf("components = %d, want 1", got)
		}
		comp := p.Components()[0]
		if len(comp.Chargers) != 4 || len(comp.Tasks) != 6 {
			t.Fatalf("component = %+v, want all chargers and tasks", comp)
		}
		checkPartition(t, p)
		// Single component under ShardOn must be bit-identical to the
		// monolithic run, padding included (the component horizon is K).
		mono := TabularGreedy(p, Options{Colors: 3, PreferStay: true, Workers: 1,
			Rng: rand.New(rand.NewSource(5))})
		shard := TabularGreedy(p, Options{Colors: 3, PreferStay: true, Workers: 1, Shard: ShardOn,
			Rng: rand.New(rand.NewSource(5))})
		if shard.Shards != 1 {
			t.Fatalf("Shards = %d, want 1", shard.Shards)
		}
		if shard.RUtility != mono.RUtility {
			t.Fatalf("RUtility %v != %v", shard.RUtility, mono.RUtility)
		}
		for i := range mono.Schedule.Policy {
			for k := range mono.Schedule.Policy[i] {
				if shard.Schedule.Policy[i][k] != mono.Schedule.Policy[i][k] {
					t.Fatalf("schedule differs at (%d,%d)", i, k)
				}
			}
		}
	})
}

// TestComponentsPermutationInvariant: permuting charger and task indices
// permutes the decomposition but cannot change it — the components of the
// permuted instance, mapped back through the permutation, are exactly the
// components of the original.
func TestComponentsPermutationInvariant(t *testing.T) {
	p := shardProblem(t, 401, 4, 8, 24)
	rng := rand.New(rand.NewSource(402))
	in := p.In
	n, m := len(in.Chargers), len(in.Tasks)

	cperm := rng.Perm(n) // position li in the permuted instance holds original charger cperm[li]
	tperm := rng.Perm(m)
	pin := &model.Instance{Params: in.Params, Utility: in.Utility}
	for li, oi := range cperm {
		ch := in.Chargers[oi]
		ch.ID = li
		pin.Chargers = append(pin.Chargers, ch)
	}
	for lj, oj := range tperm {
		tk := in.Tasks[oj]
		tk.ID = lj
		pin.Tasks = append(pin.Tasks, tk)
	}
	pp, err := NewProblem(pin)
	if err != nil {
		t.Fatal(err)
	}

	canon := func(comps []Component, cmap, tmap []int) map[string]bool {
		set := make(map[string]bool, len(comps))
		for _, comp := range comps {
			key := make([]byte, 0, 4*(len(comp.Chargers)+len(comp.Tasks)))
			ids := make([]int, 0, len(comp.Chargers)+len(comp.Tasks))
			for _, i := range comp.Chargers {
				ids = append(ids, cmap[i])
			}
			for _, j := range comp.Tasks {
				ids = append(ids, n+tmap[j])
			}
			// Sort into a canonical membership string.
			for a := 1; a < len(ids); a++ {
				for b := a; b > 0 && ids[b-1] > ids[b]; b-- {
					ids[b-1], ids[b] = ids[b], ids[b-1]
				}
			}
			for _, id := range ids {
				key = append(key, byte(id>>8), byte(id), ',')
			}
			set[string(key)] = true
		}
		return set
	}
	ident := make([]int, n+m)
	for v := range ident {
		ident[v] = v
	}
	identT := make([]int, m)
	for v := range identT {
		identT[v] = v
	}
	orig := canon(p.Components(), ident[:n], identT)
	perm := canon(pp.Components(), cperm, tperm)
	if len(orig) != len(perm) {
		t.Fatalf("component count changed under permutation: %d != %d", len(perm), len(orig))
	}
	for key := range orig {
		if !perm[key] {
			t.Fatalf("a component of the original is missing from the permuted decomposition")
		}
	}
	if pp.SchedulableComponents() != p.SchedulableComponents() {
		t.Fatalf("schedulable count changed under permutation: %d != %d",
			pp.SchedulableComponents(), p.SchedulableComponents())
	}
}

// TestAssignedHorizons: every charger's assigned horizon is the max End
// over its component's tasks, zero for chargers with no reachable task,
// and never exceeds the global horizon. Cross-checked against the
// decomposition and against each component sub-instance's own Horizon().
func TestAssignedHorizons(t *testing.T) {
	p := shardProblem(t, 601, 5, 10, 30)
	hor := p.AssignedHorizons()
	if len(hor) != len(p.In.Chargers) {
		t.Fatalf("len = %d, want %d", len(hor), len(p.In.Chargers))
	}
	for ci, comp := range p.Components() {
		end := 0
		for _, gj := range comp.Tasks {
			if e := p.In.Tasks[gj].End; e > end {
				end = e
			}
		}
		for _, gi := range comp.Chargers {
			if hor[gi] != end {
				t.Fatalf("charger %d (component %d): horizon %d, want %d", gi, ci, hor[gi], end)
			}
			if hor[gi] > p.K {
				t.Fatalf("charger %d horizon %d exceeds global K %d", gi, hor[gi], p.K)
			}
		}
		if len(comp.Chargers) > 0 && len(comp.Tasks) > 0 {
			sub := sliceInstance(p.In, comp)
			if sub.Horizon() != end {
				t.Fatalf("component %d: sub horizon %d != assigned horizon %d", ci, sub.Horizon(), end)
			}
		}
	}

	// Isolated chargers (no reachable task) get horizon 0.
	base := model.Params{
		Alpha: 100, Beta: 1, Radius: 1,
		ChargeAngle: geom.Deg(60), ReceiveAngle: geom.TwoPi,
		SlotSeconds: 60, Tau: 1,
	}
	iso, err := NewProblem(degenerateInstance(base, 4, 6, 10, 50))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range iso.AssignedHorizons() {
		if h != 0 {
			t.Fatalf("isolated charger %d: horizon %d, want 0", i, h)
		}
	}
}

// TestShardedAutoThreshold: ShardAuto shards exactly when the schedulable
// component count reaches DefaultShardThreshold, checked on instances
// made of one component fewer than the threshold and of exactly the
// threshold.
func TestShardedAutoThreshold(t *testing.T) {
	p := shardProblem(t, 501, 8, 16, 48)
	if nc := p.SchedulableComponents(); nc < DefaultShardThreshold {
		t.Fatalf("want at least %d schedulable components, got %d", DefaultShardThreshold, nc)
	}
	for _, nc := range []int{DefaultShardThreshold - 1, DefaultShardThreshold} {
		sub := firstComponents(t, p, nc)
		if got := sub.SchedulableComponents(); got != nc {
			t.Fatalf("sliced instance has %d schedulable components, want %d", got, nc)
		}
		want := 0
		if nc >= DefaultShardThreshold {
			want = nc
		}
		res := TabularGreedy(sub, Options{Colors: 1, PreferStay: true, Workers: 1, Rng: rand.New(rand.NewSource(1))})
		if res.Shards != want {
			t.Fatalf("ShardAuto on %d components: Shards = %d, want %d", nc, res.Shards, want)
		}
	}
}

// firstComponents compiles the sub-instance made of p's first k
// schedulable components.
func firstComponents(t *testing.T, p *Problem, k int) *Problem {
	t.Helper()
	var union Component
	for _, c := range p.Components() {
		if len(c.Chargers) == 0 || len(c.Tasks) == 0 {
			continue
		}
		if k == 0 {
			break
		}
		union.Chargers = append(union.Chargers, c.Chargers...)
		union.Tasks = append(union.Tasks, c.Tasks...)
		k--
	}
	sort.Ints(union.Chargers)
	sort.Ints(union.Tasks)
	return mustProblem(t, sliceInstance(p.In, union))
}

// TestShardedCtxUncancelled: the sharded ctx run with a live context is
// identical to the sharded plain run, and both agree with the monolithic
// utility.
func TestShardedCtxUncancelled(t *testing.T) {
	p := shardProblem(t, 502, 5, 10, 30)
	for _, workers := range []int{1, 4} {
		opt := Options{Colors: 3, PreferStay: true, Workers: workers, Shard: ShardOn,
			Rng: rand.New(rand.NewSource(7))}
		want := TabularGreedy(p, opt)
		opt.Rng = rand.New(rand.NewSource(7))
		got, err := TabularGreedyCtx(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.RUtility != want.RUtility || got.Shards != want.Shards {
			t.Fatalf("workers=%d: ctx run diverged: %v/%d != %v/%d",
				workers, got.RUtility, got.Shards, want.RUtility, want.Shards)
		}
		for i := range want.Schedule.Policy {
			for k := range want.Schedule.Policy[i] {
				if got.Schedule.Policy[i][k] != want.Schedule.Policy[i][k] {
					t.Fatalf("workers=%d: schedule differs at (%d,%d)", workers, i, k)
				}
			}
		}
		mono := TabularGreedy(p, Options{Colors: 3, PreferStay: true, Workers: 1, Shard: ShardOff,
			Rng: rand.New(rand.NewSource(7))})
		if got.RUtility != mono.RUtility {
			t.Fatalf("workers=%d: sharded utility %v != monolithic %v", workers, got.RUtility, mono.RUtility)
		}
	}
}

// TestShardedCtxMidRunCancel: cancelling a sharded concurrent run returns
// promptly, leaks zero pooled states across the parent problem AND every
// component sub-Problem, and leaves the problem reusable bit-identically.
func TestShardedCtxMidRunCancel(t *testing.T) {
	p := shardProblem(t, 503, 6, 12, 48)
	opts := func() Options {
		return Options{Colors: 8, PreferStay: true, Workers: 4, Shard: ShardOn,
			Rng: rand.New(rand.NewSource(9))}
	}
	full := TabularGreedy(p, opts())
	base := p.StatesInUse()
	if base != 0 {
		t.Fatalf("states in use after a completed sharded run: %d", base)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := TabularGreedyCtx(ctx, p, opts())
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sharded run did not return within 10s")
	}

	// Zero leaked pooled states — the aggregate covers every sub-Problem,
	// and each sub's own balance must be zero too.
	if got := p.StatesInUse(); got != 0 {
		t.Fatalf("pooled states leaked after sharded cancel: %d", got)
	}
	slots := *p.subs.Load()
	for ci := range slots {
		if sub := slots[ci].p.Load(); sub != nil && sub.statesOut.Load() != 0 {
			t.Fatalf("component %d sub-problem leaked %d states", ci, sub.statesOut.Load())
		}
	}

	// Problem (and its cached sub-Problems) remain reusable.
	again, err := TabularGreedyCtx(context.Background(), p, opts())
	if err != nil {
		t.Fatal(err)
	}
	if again.RUtility != full.RUtility {
		t.Fatalf("post-cancel sharded rerun diverged: %v != %v", again.RUtility, full.RUtility)
	}
	for i := range full.Schedule.Policy {
		for k := range full.Schedule.Policy[i] {
			if again.Schedule.Policy[i][k] != full.Schedule.Policy[i][k] {
				t.Fatalf("post-cancel rerun schedule differs at (%d,%d)", i, k)
			}
		}
	}
}

// TestShardedStatesBalance: sharded runs at several worker counts drive
// the aggregated pool balance back to zero, and repeated runs reuse the
// cached decomposition (pointer-stable components).
func TestShardedStatesBalance(t *testing.T) {
	p := shardProblem(t, 504, 4, 8, 24)
	comps := p.Components()
	for _, workers := range []int{1, 2, 8} {
		res := TabularGreedy(p, Options{Colors: 2, PreferStay: true, Workers: workers, Shard: ShardOn,
			Rng: rand.New(rand.NewSource(3))})
		if res.Shards == 0 {
			t.Fatalf("workers=%d: expected a sharded run", workers)
		}
		if got := p.StatesInUse(); got != 0 {
			t.Fatalf("workers=%d: %d pooled states in use after run", workers, got)
		}
	}
	if &comps[0] != &p.Components()[0] {
		t.Fatal("component cache was rebuilt between runs")
	}
}
