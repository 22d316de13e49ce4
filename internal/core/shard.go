package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"haste/internal/model"
	"haste/internal/obs"
)

// This file is the shard-and-stitch decomposition: the charging model is
// strictly local (P_r = 0 beyond the radius D), so the charger–task
// coverage graph of a large field decomposes into connected components
// that are exactly independent subproblems under the partition matroid —
// no policy of a charger in one component can move a single joule into
// another component. The decomposer finds the components by walking the
// dominant policies' cover lists, compiles each schedulable component as
// an independent sub-Problem, runs the monolithic greedy on every
// component (concurrently, bounded by Options.Workers), and stitches the
// per-component schedules back together with global indices restored.
//
// Equivalence contract (enforced by internal/difftest's sharded sweep):
//
//   - The stitched utility is EXACTLY equal to the monolithic RUtility,
//     and every cell the sharded run assigns is identical to the
//     monolithic run's cell.
//   - Cells the sharded run leaves at -1 are exactly the padding slots
//     past a component's own horizon (and the rows of chargers whose
//     component has no tasks). There the monolithic run assigns policies
//     too, but every such assignment has marginal gain exactly +0.0
//     (every task the charger can reach has ended), so it changes
//     neither energies nor the objective. The switching-delay-aware
//     simulation yields the exact same utility as well — a padding-cell
//     policy delivers zero energy whether or not a switch precedes it —
//     and since sim.Execute clips assignments past each charger's
//     AssignedHorizons entry, the simulated switch count is identical
//     too. (Before that clip, the monolithic final color sampling at
//     Colors > 1 could hop between zero-gain policies in the padding
//     region and report a higher count than the sharded run, whose -1
//     padding never switches.)
//   - On a single-component instance covering all chargers and tasks the
//     stitched result is bit-identical to the monolithic one, schedule
//     cells and utility alike.
//
// The key mechanism behind cell-for-cell identity at Colors > 1 is the
// colorPlan: the sharded runner draws the full Monte-Carlo color table
// and the final color samples from Options.Rng in exactly the monolithic
// consumption order, then hands every component the slices belonging to
// its chargers. Each component then performs, on its own tasks, exactly
// the subsequence of greedy selections and state updates the monolithic
// run performs on them — selections for chargers of other components
// cannot touch this component's task energies, and the monolithic
// iteration order (color-major, then slot, then charger) restricts to
// the component's own iteration order.

// ShardMode selects whether TabularGreedy decomposes the instance into
// connected components of the charger–task coverage graph and schedules
// them independently.
type ShardMode int

const (
	// ShardAuto (the zero value) shards when the instance decomposes
	// into at least Options.ShardThreshold schedulable components.
	ShardAuto ShardMode = iota
	// ShardOff always runs the monolithic scheduler.
	ShardOff
	// ShardOn always takes the shard-and-stitch path, even on a single
	// component (where it is bit-identical to the monolithic run).
	ShardOn
)

// DefaultShardThreshold is the component count at which ShardAuto turns
// sharding on. Below it the decomposition buys little (the components'
// compiled kernels largely duplicate the monolithic one) and the
// monolithic path avoids the sub-Problem compilation entirely.
const DefaultShardThreshold = 4

// Component is one connected component of the charger–task coverage
// graph: charger i and task j are connected when some dominant policy of
// charger i covers task j (equivalently, when the pair is chargeable —
// every chargeable task appears in at least one dominant policy). Both
// index lists hold original instance indices in ascending order.
// Components are ordered by their smallest member (chargers before
// tasks), so the decomposition is canonical for a given instance.
type Component struct {
	Chargers []int
	Tasks    []int
}

// Components returns the connected components of the problem's coverage
// graph. Tasks no charger can reach and chargers with no chargeable task
// form singleton components. The result is computed once and cached; the
// returned slice must not be mutated.
func (p *Problem) Components() []Component {
	p.compsOnce.Do(p.computeComponents)
	return p.comps
}

// SchedulableComponents returns the number of components with at least
// one charger and one task — the components the sharded scheduler
// actually runs. ShardAuto compares this count against the threshold.
func (p *Problem) SchedulableComponents() int {
	p.compsOnce.Do(p.computeComponents)
	return p.schedulable
}

func (p *Problem) computeComponents() {
	p.comps, p.schedulable = coverageComponents(len(p.In.Chargers), len(p.In.Tasks), p.rows)
}

// AssignedHorizons returns, per charger, one past the last slot in which
// any schedule for this problem can assign a policy with non-zero effect:
// the maximum End over the charger's component's tasks (0 for chargers
// with no reachable task). Past this horizon every policy delivers
// exactly zero energy — all tasks the charger can reach have ended — so
// the sharded scheduler leaves such cells at -1 while the monolithic one
// may fill them with zero-gain policies. Executors and comparators that
// must treat the two schedules identically (sim switch counting,
// difftest's sharded contract) clip assignments at this horizon.
func (p *Problem) AssignedHorizons() []int {
	hor := make([]int, len(p.In.Chargers))
	for _, comp := range p.Components() {
		end := 0
		for _, gj := range comp.Tasks {
			if e := p.In.Tasks[gj].End; e > end {
				end = e
			}
		}
		for _, gi := range comp.Chargers {
			hor[gi] = end
		}
	}
	return hor
}

// coverageComponents finds the connected components of the coverage graph
// straight from the sparse chargeable rows: charger i and task j are
// adjacent iff j appears in rows[i]. Rows carry exactly the chargeable
// relation (zero-energy chargeable pairs included), which is the same edge
// set the dominant policies' cover lists induce, so components computed
// here are identical to the Gamma-walk of earlier revisions — and
// available without compiling policies or a kernel at all, which is what
// lets ScheduleSharded decompose a raw instance before any compilation.
func coverageComponents(n, m int, rows [][]CoverEntry) ([]Component, int) {
	// Union-find over n+m nodes (task j is node n+j), union-by-minimum so
	// every root is its component's smallest member.
	parent := make([]int32, n+m)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	for i, row := range rows {
		for _, e := range row {
			a, b := find(int32(i)), find(int32(n)+e.Task)
			if a == b {
				continue
			}
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	index := make(map[int32]int)
	var comps []Component
	for v := 0; v < n+m; v++ {
		r := find(int32(v))
		ci, ok := index[r]
		if !ok {
			ci = len(comps)
			index[r] = ci
			comps = append(comps, Component{})
		}
		if v < n {
			comps[ci].Chargers = append(comps[ci].Chargers, v)
		} else {
			comps[ci].Tasks = append(comps[ci].Tasks, v-n)
		}
	}
	sched := 0
	for _, c := range comps {
		if len(c.Chargers) > 0 && len(c.Tasks) > 0 {
			sched++
		}
	}
	return comps, sched
}

// subProblems compiles (once, cached) an independent sub-Problem for
// every schedulable component; unschedulable components get nil. Each
// sub-instance keeps the component's chargers and tasks in their
// original relative order with densely renumbered IDs, so dominant
// extraction reproduces exactly the global Gamma rows of the component's
// chargers (policy indices included) and the compiled kernel reproduces
// their cover entries bit for bit. Sub-Problems inherit the parent's
// kernel choice (SetFlatKernel) as of their compilation.
//
// After a delta operation (incremental.go) the rebuild first consults the
// stashed pre-mutation decomposition: a component with identical
// membership and no dirty charger adopts its old compiled sub-Problem —
// whose sub-instance is bit-identical to what sliceInstance would produce
// now — instead of recompiling it.
func (p *Problem) subProblems() []*Problem {
	p.subsOnce.Do(func() {
		comps := p.Components()
		prev := p.prevSubs
		p.prevSubs = nil
		subs := make([]*Problem, len(comps))
		for ci, comp := range comps {
			if len(comp.Chargers) == 0 || len(comp.Tasks) == 0 {
				continue
			}
			if sub := prev.adoptableSub(comp); sub != nil {
				sub.SetFlatKernel(p.kern.linear)
				subs[ci] = sub
				continue
			}
			sub, err := NewProblem(sliceInstance(p.In, comp))
			if err != nil {
				// A component of a valid instance satisfies everything
				// Validate checks (dense renumbered IDs, same params,
				// untouched task fields), so this cannot happen.
				panic(fmt.Sprintf("core: component sub-problem failed to compile: %v", err))
			}
			sub.SetFlatKernel(p.kern.linear)
			subs[ci] = sub
		}
		p.subs.Store(&subs)
	})
	return *p.subs.Load()
}

// sliceInstance extracts a component's standalone sub-instance: the
// component's chargers and tasks in their original relative order with
// densely renumbered IDs, sharing the parent's params and utility.
func sliceInstance(parent *model.Instance, comp Component) *model.Instance {
	in := &model.Instance{Params: parent.Params, Utility: parent.Utility}
	in.Chargers = make([]model.Charger, len(comp.Chargers))
	for li, gi := range comp.Chargers {
		in.Chargers[li] = parent.Chargers[gi]
		in.Chargers[li].ID = li
	}
	in.Tasks = make([]model.Task, len(comp.Tasks))
	for lj, gj := range comp.Tasks {
		in.Tasks[lj] = parent.Tasks[gj]
		in.Tasks[lj].ID = lj
	}
	return in
}

// colorPlan fixes every random draw of a monolithic greedy run up front:
// colorOf is the partition-major Monte-Carlo color table and final the
// per-partition color sampled at the end (Algorithm 2 line 6–8). A run
// handed a plan consumes no randomness from Options.Rng at all, which is
// what lets concurrent component runs share one global plan without
// contending on (or reordering draws from) a single rand.Rand.
type colorPlan struct {
	colorOf []uint8 // [(i*K+k)*N+s]: color of partition (i,k) in sample s
	final   []int32 // [i*K+k]: color sampled for partition (i,k)
}

// shardedGreedy is the shard-and-stitch execution of Algorithm 2: draw
// the global color plan, run every schedulable component's sub-Problem
// under the plan's restriction to its chargers (at most Options.Workers
// components in flight; each sub-run is sequential), stitch the
// component schedules into the global index space, and evaluate the
// stitched schedule on the original problem. parent receives the phase
// spans (decompose, one component span per sub-run with size/worker/
// warm-adoption attributes, stitch, evaluate); since component workers
// record concurrently, sibling span order is not deterministic — the
// schedule itself remains bit-identical at any worker count.
func shardedGreedy(done <-chan struct{}, p *Problem, opt Options, parent obs.SpanRef) (Result, bool) {
	n, K, C, N := len(p.In.Chargers), p.K, opt.Colors, opt.Samples
	sched := NewSchedule(n, K)
	if K == 0 || n == 0 {
		return Result{Schedule: sched}, true
	}

	dsp := parent.Start("decompose")
	comps := p.Components()
	subs := p.subProblems()
	dsp.Int("components", int64(len(comps))).End()

	plan := drawColorPlan(opt.Rng, n, K, C, N)

	runnable := make([]int, 0, len(comps))
	for ci, sub := range subs {
		if sub != nil && sub.K > 0 {
			runnable = append(runnable, ci)
		}
	}

	// Warm start: adopt the incumbent's result for every component a
	// re-run provably could not change (warm.go documents the conditions);
	// only the rest is dispatched to the workers.
	results := make([]*Result, len(comps))
	oks := make([]bool, len(comps))
	reusedCount := 0
	toRun := runnable
	if inc := opt.Incumbent; inc.matches(opt, n) {
		toRun = make([]int, 0, len(runnable))
		for _, ci := range runnable {
			if r := inc.reusable(comps[ci], subs[ci].K, &plan, K, N); r != nil {
				results[ci], oks[ci] = r, true
				reusedCount++
				// Zero-duration marker span: the component's stored result
				// was adopted instead of re-run.
				parent.Start("component").
					Int("chargers", int64(len(comps[ci].Chargers))).
					Int("tasks", int64(len(comps[ci].Tasks))).
					Bool("warm_adopted", true).End()
				continue
			}
			toRun = append(toRun, ci)
		}
	}

	workers := opt.Workers
	if workers > len(toRun) {
		workers = len(toRun)
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			idx := int(next.Add(1)) - 1
			if idx >= len(toRun) {
				return
			}
			ci := toRun[idx]
			csp := parent.Start("component").
				Int("chargers", int64(len(comps[ci].Chargers))).
				Int("tasks", int64(len(comps[ci].Tasks))).
				Int("worker", int64(w)).
				Bool("warm_adopted", false)
			r, ok := runComponent(done, subs[ci], comps[ci], p.K, opt, &plan, csp)
			csp.End()
			if ok {
				results[ci] = &r
			}
			oks[ci] = ok
		}
	}
	if workers <= 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		run(0)
		wg.Wait()
	}

	for _, ci := range runnable {
		if !oks[ci] {
			return Result{}, false // cancelled; every sub-run has released its states
		}
	}

	ssp := parent.Start("stitch")
	res := Result{Schedule: sched, Shards: len(runnable), WarmReused: reusedCount}
	for _, ci := range runnable {
		comp, sub := comps[ci], subs[ci]
		for li, gi := range comp.Chargers {
			copy(sched.Policy[gi][:sub.K], results[ci].Schedule.Policy[li])
		}
		// Aggregated in canonical component order, so instrumented runs
		// report deterministic counters at any worker count. Adopted
		// results carry the counters of their original (also sequential,
		// also deterministic) run — the counts a re-run would reproduce.
		res.Kernel.add(results[ci].Kernel)
	}
	ssp.End()
	// Re-evaluating the stitched schedule on the original problem — not
	// summing per-component utilities — keeps the total bit-identical to
	// the monolithic run: Evaluate accumulates contributions in the same
	// (charger, slot) order, and the cells only the monolithic schedule
	// assigns contribute exactly +0.0.
	esp := parent.Start("evaluate")
	res.RUtility = Evaluate(p, sched)
	esp.End()
	if opt.CollectWarm {
		subKs := make([]int, len(comps))
		for _, ci := range runnable {
			subKs[ci] = subs[ci].K
		}
		res.Warm = &WarmStart{
			colors: C, samples: N, preferStay: opt.PreferStay,
			kernelStats: opt.KernelStats, n: n, k: K,
			plan: plan, comps: comps, results: results, subKs: subKs,
		}
	}
	return res, true
}

// drawColorPlan draws every random decision of a greedy run up front, in
// exactly the monolithic consumption order (samples-major color table,
// then the final colors), so a sharded run spends rng draws identically
// to the monolithic run it must reproduce.
func drawColorPlan(rng *rand.Rand, n, K, C, N int) colorPlan {
	plan := colorPlan{
		colorOf: make([]uint8, N*n*K),
		final:   make([]int32, n*K),
	}
	for s := 0; s < N; s++ {
		for idx := 0; idx < n*K; idx++ {
			plan.colorOf[idx*N+s] = uint8(rng.Intn(C))
		}
	}
	for idx := range plan.final {
		plan.final[idx] = int32(rng.Intn(C))
	}
	return plan
}

// runComponent slices the global color plan (drawn for a K-slot horizon
// over all global chargers) down to the component's chargers and runs the
// monolithic greedy on its sub-Problem — one sequential sweep, so the
// component pool is the run's only parallelism.
func runComponent(done <-chan struct{}, sub *Problem, comp Component, K int, opt Options, plan *colorPlan, parent obs.SpanRef) (Result, bool) {
	N := opt.Samples
	Kc := sub.K
	subPlan := &colorPlan{
		colorOf: make([]uint8, N*len(comp.Chargers)*Kc),
		final:   make([]int32, len(comp.Chargers)*Kc),
	}
	for li, gi := range comp.Chargers {
		for k := 0; k < Kc; k++ {
			lidx, gidx := li*Kc+k, gi*K+k
			copy(subPlan.colorOf[lidx*N:(lidx+1)*N], plan.colorOf[gidx*N:(gidx+1)*N])
			subPlan.final[lidx] = plan.final[gidx]
		}
	}
	subOpt := opt
	subOpt.Shard = ShardOff
	subOpt.Rng = nil // every draw comes from the plan
	return monolithicGreedy(done, sub, subOpt, subPlan, parent)
}
