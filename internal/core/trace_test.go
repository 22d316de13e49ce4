package core

import (
	"math/rand"
	"testing"

	"haste/internal/obs"
)

func childrenNamed(n *obs.Node, name string) []*obs.Node {
	var out []*obs.Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// A traced monolithic run must produce the documented phase tree — one
// solve root with greedy and evaluate children and the run counters as
// root attributes — and a schedule bit-identical to the untraced run.
func TestTraceMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	in := kernelProneInstance(rng, 4, 16)
	p := mustProblem(t, in)

	base := Options{Colors: 2, PreferStay: true, Workers: 1, KernelStats: true, Shard: ShardOff}
	plain := TabularGreedy(p, base)

	traced := base
	traced.Trace = obs.New()
	res := TabularGreedy(p, traced)
	if err := compareSchedules(plain.Schedule, res.Schedule); err != nil {
		t.Fatalf("traced schedule diverges from untraced: %v", err)
	}
	if res.RUtility != plain.RUtility {
		t.Fatalf("traced utility %v != untraced %v", res.RUtility, plain.RUtility)
	}
	if res.Trace != traced.Trace {
		t.Fatalf("Result.Trace does not echo Options.Trace")
	}

	roots := res.Trace.Tree()
	if len(roots) != 1 || roots[0].Name != "solve" {
		t.Fatalf("want a single solve root, got %+v", roots)
	}
	solve := roots[0]
	if len(childrenNamed(solve, "greedy")) != 1 || len(childrenNamed(solve, "evaluate")) != 1 {
		t.Fatalf("solve children malformed: %+v", solve.Children)
	}
	g := childrenNamed(solve, "greedy")[0]
	if g.Attrs["chargers"] != 4 || g.Attrs["colors"] != 2 {
		t.Errorf("greedy attrs = %v", g.Attrs)
	}
	if solve.Attrs["shards"] != 0 {
		t.Errorf("monolithic solve reports shards=%d", solve.Attrs["shards"])
	}
	// The run counters fold into the root span.
	if solve.Attrs["kernel_calls"] != res.Kernel.Calls || solve.Attrs["kernel_pruned"] != res.Kernel.Pruned {
		t.Errorf("kernel counters not folded into root: %v vs %+v", solve.Attrs, res.Kernel)
	}
}

// A traced sharded run records decompose/stitch/evaluate plus one
// component span per sub-run; a re-run on the same clone marks adopted
// components with warm_adopted=1, matching Result.WarmReused.
func TestTraceShardedAndWarm(t *testing.T) {
	base := shardProblem(t, 52, 6, 12, 48)

	opt := Options{Colors: 2, PreferStay: true, Workers: 2, Shard: ShardOn}
	cold := TabularGreedy(base, opt)
	if cold.Shards < 2 {
		t.Fatalf("instance did not shard: %d components", cold.Shards)
	}

	p := base.CloneCompiled()
	traced := opt
	traced.Trace = obs.New()
	res := TabularGreedy(p, traced)
	if err := compareSchedules(cold.Schedule, res.Schedule); err != nil {
		t.Fatalf("traced sharded schedule diverges: %v", err)
	}
	roots := res.Trace.Tree()
	if len(roots) != 1 || roots[0].Name != "solve" {
		t.Fatalf("want a single solve root, got %d roots", len(roots))
	}
	solve := roots[0]
	for _, phase := range []string{"decompose", "stitch", "evaluate"} {
		if len(childrenNamed(solve, phase)) != 1 {
			t.Fatalf("missing %s span: %+v", phase, solve.Children)
		}
	}
	comps := childrenNamed(solve, "component")
	if len(comps) != res.Shards {
		t.Fatalf("%d component spans, want %d", len(comps), res.Shards)
	}
	for _, c := range comps {
		if c.Attrs["chargers"] < 1 || c.Attrs["tasks"] < 1 {
			t.Errorf("component span lacks size attrs: %v", c.Attrs)
		}
		if c.Attrs["warm_adopted"] != 0 {
			t.Errorf("cold run adopted a component: %v", c.Attrs)
		}
		if len(childrenNamed(c, "greedy")) != 1 {
			t.Errorf("component span lacks nested greedy: %+v", c.Children)
		}
		// The clone's first run compiles every sub-Problem in its worker.
		if len(childrenNamed(c, "compile")) != 1 {
			t.Errorf("component span lacks its sub-Problem compile: %+v", c.Children)
		}
	}
	if solve.Attrs["shards"] != int64(res.Shards) {
		t.Errorf("root shards attr %d != %d", solve.Attrs["shards"], res.Shards)
	}

	// Warm re-run on the clone: every component's last run matches, so
	// all component spans must carry warm_adopted=1 and their count must
	// equal WarmReused.
	warm := opt
	warm.Trace = obs.New()
	wres := TabularGreedy(p, warm)
	if err := compareSchedules(cold.Schedule, wres.Schedule); err != nil {
		t.Fatalf("warm traced schedule diverges: %v", err)
	}
	if wres.WarmReused != res.Shards {
		t.Fatalf("warm run reused %d of %d components", wres.WarmReused, res.Shards)
	}
	wsolve := wres.Trace.Tree()[0]
	adopted := 0
	for _, c := range childrenNamed(wsolve, "component") {
		if c.Attrs["warm_adopted"] == 1 {
			adopted++
		}
		if len(childrenNamed(c, "compile")) != 0 {
			t.Errorf("warm run recompiled a cached sub-Problem: %+v", c.Children)
		}
	}
	if adopted != wres.WarmReused {
		t.Fatalf("%d warm_adopted spans, want %d", adopted, wres.WarmReused)
	}
	if wsolve.Attrs["warm_reused"] != int64(wres.WarmReused) {
		t.Errorf("root warm_reused attr %d != %d", wsolve.Attrs["warm_reused"], wres.WarmReused)
	}
}

// NewProblemTraced records the eager compile — grid build and
// slot-energy rows — and the first traced monolithic run records the
// deferred dominant extraction and kernel compile as a second compile
// tree ahead of its solve; the Problem schedules identically to the
// untraced compile.
func TestTraceCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	in := kernelProneInstance(rng, 4, 16)
	plain := mustProblem(t, in)

	tr := obs.New()
	p, err := NewProblemTraced(in, tr)
	if err != nil {
		t.Fatal(err)
	}
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "compile" {
		t.Fatalf("want a single compile root, got %+v", roots)
	}
	compile := roots[0]
	if len(compile.Children) != 2 {
		t.Fatalf("compile children = %+v, want grid_build and slot_energy_rows", compile.Children)
	}
	for _, phase := range []string{"grid_build", "slot_energy_rows"} {
		if len(childrenNamed(compile, phase)) != 1 {
			t.Fatalf("missing %s span: %+v", phase, compile.Children)
		}
	}
	if compile.Attrs["chargers"] != 4 || compile.Attrs["tasks"] != 16 {
		t.Errorf("compile attrs = %v", compile.Attrs)
	}
	if got := childrenNamed(compile, "slot_energy_rows")[0].Attrs["entries"]; got <= 0 {
		t.Errorf("slot_energy_rows entries attr = %d", got)
	}

	opt := Options{Colors: 2, PreferStay: true, Workers: 1, Shard: ShardOff}
	a := TabularGreedy(plain, opt)
	opt.Trace = tr
	b := TabularGreedy(p, opt)
	if err := compareSchedules(a.Schedule, b.Schedule); err != nil {
		t.Fatalf("traced compile changes the schedule: %v", err)
	}
	roots = tr.Tree()
	if len(roots) != 3 || roots[1].Name != "compile" || roots[2].Name != "solve" {
		t.Fatalf("want compile, compile, solve roots, got %+v", roots)
	}
	for _, phase := range []string{"dominant_extract", "kernel_compile"} {
		if len(childrenNamed(roots[1], phase)) != 1 {
			t.Fatalf("missing %s span: %+v", phase, roots[1].Children)
		}
	}
	if got := childrenNamed(roots[1], "dominant_extract")[0].Attrs["policies"]; got <= 0 {
		t.Errorf("dominant_extract policies attr = %d", got)
	}
	TabularGreedy(p, opt)
	if roots = tr.Tree(); len(roots) != 4 || roots[3].Name != "solve" {
		t.Fatalf("a second monolithic run recompiled: %+v", roots)
	}

	// A nil trace must be exactly NewProblem.
	if _, err := NewProblemTraced(in, nil); err != nil {
		t.Fatalf("nil-trace compile failed: %v", err)
	}
}

// A cold ShardAuto run on a traced compile records the compile root
// (rows only: no field-wide policies or kernel) and then a solve root with
// the decomposition, a compile subtree under every component, and the
// stitch and evaluate phases.
func TestTraceScheduleSharded(t *testing.T) {
	tr := obs.New()
	p, err := NewProblemTraced(shardProblem(t, 54, 5, 10, 40).In, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := TabularGreedy(p, Options{Colors: 1, PreferStay: true, Workers: 2, Trace: tr})
	if res.Shards < DefaultShardThreshold {
		t.Fatalf("ShardAuto did not shard: %d components", res.Shards)
	}
	roots := res.Trace.Tree()
	if len(roots) != 2 || roots[0].Name != "compile" || roots[1].Name != "solve" {
		t.Fatalf("want compile and solve roots, got %+v", roots)
	}
	for _, phase := range []string{"grid_build", "slot_energy_rows"} {
		if len(childrenNamed(roots[0], phase)) != 1 {
			t.Fatalf("missing %s span: %+v", phase, roots[0].Children)
		}
	}
	solve := roots[1]
	for _, phase := range []string{"decompose", "stitch", "evaluate"} {
		if len(childrenNamed(solve, phase)) != 1 {
			t.Fatalf("missing %s span: %+v", phase, solve.Children)
		}
	}
	comps := childrenNamed(solve, "component")
	if len(comps) != res.Shards {
		t.Fatalf("%d component spans, want %d", len(comps), res.Shards)
	}
	for _, c := range comps {
		if len(childrenNamed(c, "compile")) != 1 {
			t.Errorf("component lacks its compile subtree: %+v", c.Children)
		}
	}
}

// The disabled-trace marginal loop must stay allocation-free: Marginal and
// MarginalScaled at 0 allocs/op.
func TestTraceDisabledMarginalAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	in := kernelProneInstance(rng, 3, 12)
	p := mustProblem(t, in)
	es := p.AcquireState()
	defer p.ReleaseState(es)
	allocs := testing.AllocsPerRun(200, func() {
		for i := range p.Gamma() {
			for pol := range p.Gamma()[i] {
				_ = es.Marginal(i, 0, pol)
				_ = es.MarginalScaled(i, 0, pol, 0.5)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("marginal loop allocated %v times per run, want 0", allocs)
	}
}
