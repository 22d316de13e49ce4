package core

import (
	"math/rand"
	"sort"
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
// another component. The decomposer finds the components from the sparse
// chargeable rows, the runner gets each schedulable component's
// sub-Problem — sliced out of the parent's rows inside the worker that
// first runs the component and cached on the parent — runs the
// monolithic greedy on every component (concurrently, bounded by
// Options.Workers), and stitches the per-component schedules and cell
// gains back together with global indices restored. A sharded run never
// builds the parent's field-wide dominant sets or kernel.
//
// Equivalence contract (enforced by internal/difftest's sharded sweep):
//
//   - The stitched utility is EXACTLY equal to the monolithic RUtility
//     and to Evaluate of the stitched schedule, and every cell the
//     sharded run assigns is identical to the monolithic run's cell.
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
// and the final color samples from Options.Rng through the same
// drawColorPlan as the monolithic run, then hands every component the
// slices belonging to its chargers. Each component then performs, on its
// own tasks, exactly the subsequence of greedy selections and state
// updates the monolithic run performs on them — selections for chargers
// of other components cannot touch this component's task energies, and
// the monolithic iteration order (color-major, then slot, then charger)
// restricts to the component's own iteration order.

// ShardMode selects whether TabularGreedy decomposes the instance into
// connected components of the charger–task coverage graph and schedules
// them independently.
type ShardMode int

const (
	// ShardAuto (the zero value) shards when the instance decomposes
	// into at least DefaultShardThreshold schedulable components.
	ShardAuto ShardMode = iota
	// ShardOff always runs the monolithic scheduler.
	ShardOff
	// ShardOn always takes the shard-and-stitch path, even on a single
	// component (where it is bit-identical to the monolithic run).
	ShardOn
)

// DefaultShardThreshold is the component count at which ShardAuto turns
// sharding on. Below it the decomposition buys little: the pool has few
// components to overlap, while each still pays for its own sub-Problem,
// plan slice and stitch.
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
		end := componentHorizon(p.In, comp)
		for _, gi := range comp.Chargers {
			hor[gi] = end
		}
	}
	return hor
}

// componentHorizon is the maximum End over a component's tasks: the K of
// its sub-Problem, and the slots its sub-run assigns.
func componentHorizon(in *model.Instance, comp Component) int {
	end := 0
	for _, gj := range comp.Tasks {
		end = max(end, in.Tasks[gj].End)
	}
	return end
}

// coverageComponents finds the connected components of the coverage graph
// straight from the sparse chargeable rows: charger i and task j are
// adjacent iff j appears in rows[i]. Rows carry exactly the chargeable
// relation (zero-energy chargeable pairs included), which is the same edge
// set the dominant policies' cover lists induce, so components computed
// here are identical to the Gamma-walk of earlier revisions — and
// available without compiling policies or a kernel at all.
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
	// A root is its component's smallest member, so an ascending walk
	// meets it before the rest of the component: that numbers the
	// components canonically. The walk also counts each component's
	// chargers and tasks, so the member lists are carved out of one arena.
	of := make([]int32, n+m) // component of every node
	var counts [][2]int      // chargers, tasks per component
	for v := range of {
		if r := find(int32(v)); r == int32(v) {
			of[v] = int32(len(counts))
			counts = append(counts, [2]int{})
		} else {
			of[v] = of[r]
		}
		if v < n {
			counts[of[v]][0]++
		} else {
			counts[of[v]][1]++
		}
	}
	comps := make([]Component, len(counts))
	arena := make([]int, n+m)
	sched := 0
	for ci, c := range counts {
		if c[0] > 0 {
			comps[ci].Chargers, arena = arena[:0:c[0]], arena[c[0]:]
		}
		if c[1] > 0 {
			comps[ci].Tasks, arena = arena[:0:c[1]], arena[c[1]:]
		}
		if c[0] > 0 && c[1] > 0 {
			sched++
		}
	}
	for v, ci := range of {
		if v < n {
			comps[ci].Chargers = append(comps[ci].Chargers, v)
		} else {
			comps[ci].Tasks = append(comps[ci].Tasks, v-n)
		}
	}
	return comps, sched
}

// subSlot holds one component's sub-Problem: adopted from the
// pre-mutation decomposition when subProblems sets the slots up, or
// compiled by the first sharded run that reaches the component.
type subSlot struct {
	once sync.Once
	p    atomic.Pointer[Problem]
}

// subProblems returns the problem's sub-Problem slots, one per component,
// setting them up once per decomposition. Sub-Problems are compiled
// lazily, in the component workers (subProblem), so a sharded run
// compiles its components in parallel under the Options.Workers bound.
//
// After a delta operation (incremental.go) the setup first consults the
// stashed pre-mutation decomposition: a component with identical
// membership and no dirty charger adopts its old compiled sub-Problem —
// whose sub-instance is bit-identical to what sliceInstance would produce
// now — instead of recompiling it. Sub-Problems compiled under a clone
// keep their last component run (warm.go), so an adopted sub-Problem
// also brings the result a re-run would reproduce.
func (p *Problem) subProblems() []subSlot {
	p.subsOnce.Do(func() {
		comps := p.Components()
		prev := p.prevSubs
		p.prevSubs = nil
		slots := make([]subSlot, len(comps))
		for ci, comp := range comps {
			if sub := prev.adoptableSub(comp); sub != nil {
				sub.SetFlatKernel(p.kern.linear)
				s := &slots[ci]
				s.once.Do(func() { s.p.Store(sub) })
			}
		}
		p.subs.Store(&slots)
	})
	return *p.subs.Load()
}

// subProblem returns component ci's sub-Problem, compiling it into its
// slot the first time and recording the compile subtree under parent.
// Each sub-instance keeps the component's chargers and tasks in their
// original relative order with densely renumbered IDs, so dominant
// extraction reproduces exactly the global Gamma rows of the component's
// chargers (policy indices included) and the compiled kernel reproduces
// their cover entries bit for bit. A sub-Problem is always run
// monolithically, so its dominant sets and kernel are built right away;
// it inherits the parent's kernel choice (SetFlatKernel) as of its
// compilation.
func (p *Problem) subProblem(slots []subSlot, ci int, parent obs.SpanRef) *Problem {
	s := &slots[ci]
	s.once.Do(func() {
		comp := p.Components()[ci]
		sp := parent.Start("compile")
		sub := newProblemFromRows(sliceInstance(p.In, comp), sliceRows(p.rows, comp, sp))
		sub.mono = compileMonolith(sub, sp)
		sub.monoBuilt.Store(true)
		sp.Int("chargers", int64(len(comp.Chargers))).Int("tasks", int64(len(comp.Tasks))).End()
		sub.SetFlatKernel(p.kern.linear)
		sub.keepRuns = p.keepRuns
		s.p.Store(sub)
	})
	return s.p.Load()
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

// sliceRows gives a component's chargers their chargeable rows in the
// sub-instance's numbering. A component contains every task its
// chargers' rows reach, and renumbering keeps the tasks' relative order,
// so each sliced row is exactly what chargeableRows would build on the
// sub-instance: the same pairs, ascending, with the parent's De values
// copied rather than recomputed.
func sliceRows(rows [][]CoverEntry, comp Component, parent obs.SpanRef) [][]CoverEntry {
	rsp := parent.Start("slice_rows")
	total := 0
	for _, gi := range comp.Chargers {
		total += len(rows[gi])
	}
	arena := make([]CoverEntry, 0, total)
	out := make([][]CoverEntry, len(comp.Chargers))
	for li, gi := range comp.Chargers {
		start := len(arena)
		for _, e := range rows[gi] {
			lj := sort.SearchInts(comp.Tasks, int(e.Task))
			arena = append(arena, CoverEntry{Task: int32(lj), De: e.De})
		}
		out[li] = arena[start:len(arena):len(arena)]
	}
	rsp.Int("entries", int64(total)).End()
	return out
}

// colorPlan fixes every random draw of a greedy run up front: colorOf is
// the Monte-Carlo color table, stored partition-major so the per-step
// affected scan reads N consecutive bytes, and final the per-partition
// color sampled at the end (Algorithm 2 line 6–8). The greedy body
// consumes no randomness from Options.Rng itself, which is what lets
// concurrent component runs share one global plan without contending on
// (or reordering draws from) a single rand.Rand.
type colorPlan struct {
	colorOf []uint8 // [(i*K+k)*N+s]: color of partition (i,k) in sample s
	final   []uint8 // [i*K+k]: color sampled for partition (i,k)
}

// shardedGreedy is the shard-and-stitch execution of Algorithm 2:
// decompose p, draw the global color plan, run every schedulable
// component's sub-Problem — compiled in the worker that first reaches it —
// under the plan's restriction to its chargers (at most Options.Workers
// components in flight; each sub-run is sequential), and stitch the
// component schedules and cell gains into the global index space. parent
// receives the decompose span, one component span per sub-run
// (size/worker/warm-adoption attributes), stitch and evaluate; since
// component workers record concurrently, sibling span order is not
// deterministic — the result itself is bit-identical at any worker count.
func shardedGreedy(done <-chan struct{}, p *Problem, opt Options, parent obs.SpanRef) (Result, bool) {
	dsp := parent.Start("decompose")
	comps, subs := p.Components(), p.subProblems()
	dsp.Int("components", int64(len(comps))).End()

	n, K, C, N := len(p.In.Chargers), p.K, opt.Colors, opt.Samples
	sched := NewSchedule(n, K)
	if K == 0 || n == 0 {
		return Result{Schedule: sched}, true
	}

	plan := drawColorPlan(opt.Rng, n, K, C, N)

	// A component is schedulable when it has chargers, tasks and a
	// non-empty horizon (its sub-Problem's K).
	subKs := make([]int, len(comps))
	runnable := make([]int, 0, len(comps))
	for ci, comp := range comps {
		subKs[ci] = componentHorizon(p.In, comp)
		if len(comp.Chargers) > 0 && subKs[ci] > 0 {
			runnable = append(runnable, ci)
		}
	}

	results := make([]*Result, len(comps))
	oks := make([]bool, len(comps))
	var reused atomic.Int64
	workers := opt.Workers
	if workers > len(runnable) {
		workers = len(runnable)
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			idx := int(next.Add(1)) - 1
			if idx >= len(runnable) || cancelled(done) {
				return // a component never reached stays !ok
			}
			ci := runnable[idx]
			csp := parent.Start("component").
				Int("chargers", int64(len(comps[ci].Chargers))).
				Int("tasks", int64(len(comps[ci].Tasks))).
				Int("worker", int64(w))
			r, ok, adopted := runComponent(done, p.subProblem(subs, ci, csp), comps[ci], K, opt, &plan, csp)
			csp.Bool("warm_adopted", adopted).End()
			if adopted {
				reused.Add(1)
			}
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
	res := Result{Schedule: sched, Shards: len(runnable), WarmReused: int(reused.Load())}
	rowGains := make([][]float64, n)
	for _, ci := range runnable {
		comp, r, Kc := comps[ci], results[ci], subKs[ci]
		for li, gi := range comp.Chargers {
			copy(sched.Policy[gi][:Kc], r.Schedule.Policy[li])
			rowGains[gi] = r.gains[li*Kc : (li+1)*Kc]
		}
		// Aggregated in canonical component order, so counted runs
		// report deterministic counters at any worker count. Adopted
		// results carry the counters of their original (also sequential,
		// also deterministic) run — the counts a re-run would reproduce.
		res.Kernel.add(r.Kernel)
	}
	ssp.End()
	// Summing the component runs' cell gains in global (charger, slot)
	// order is the exact sequence of additions Evaluate(parent, stitched)
	// performs: a sub-kernel reproduces the parent's cover entries bit for
	// bit, so every cell's gain is the one the parent would compute, and
	// cells left at -1 carry no gain. The result is the monolithic
	// RUtility bit for bit, without a monolithic kernel.
	esp := parent.Start("evaluate")
	for _, row := range rowGains {
		for _, g := range row {
			res.RUtility += g
		}
	}
	esp.End()
	return res, true
}

// drawColorPlan draws every random decision of a greedy run over n
// chargers and K slots from rng: the color table sample-major, then the
// final colors. Both routes draw through it, so a sharded run spends rng
// draws identically to the monolithic run it must reproduce.
func drawColorPlan(rng *rand.Rand, n, K, C, N int) colorPlan {
	plan := colorPlan{
		colorOf: make([]uint8, N*n*K),
		final:   make([]uint8, n*K),
	}
	for s := 0; s < N; s++ {
		for idx := 0; idx < n*K; idx++ {
			plan.colorOf[idx*N+s] = uint8(rng.Intn(C))
		}
	}
	for idx := range plan.final {
		plan.final[idx] = uint8(rng.Intn(C))
	}
	return plan
}

// runComponent slices the global color plan (drawn for a K-slot horizon
// over all global chargers) down to the component's chargers and runs the
// monolithic greedy on its sub-Problem — one sequential sweep, so the
// component pool is the run's only parallelism. On a sub-Problem that
// keeps runs (warm.go) it first compares the slice and options against
// the sub-Problem's last run and, when they match, returns that run's
// result instead (adopted = true); a finished run is stored for the next.
func runComponent(done <-chan struct{}, sub *Problem, comp Component, K int, opt Options, plan *colorPlan, parent obs.SpanRef) (res Result, ok, adopted bool) {
	N := opt.Samples
	Kc := sub.K
	subPlan := &colorPlan{
		colorOf: make([]uint8, N*len(comp.Chargers)*Kc),
		final:   make([]uint8, len(comp.Chargers)*Kc),
	}
	for li, gi := range comp.Chargers {
		for k := 0; k < Kc; k++ {
			lidx, gidx := li*Kc+k, gi*K+k
			copy(subPlan.colorOf[lidx*N:(lidx+1)*N], plan.colorOf[gidx*N:(gidx+1)*N])
			subPlan.final[lidx] = plan.final[gidx]
		}
	}
	flat := sub.kern.linear
	if sub.keepRuns {
		if last := sub.lastRun.Load(); last.matches(opt, flat, subPlan) {
			return *last.res, true, true
		}
	}
	subOpt := opt
	subOpt.Shard = ShardOff
	subOpt.Rng = nil // every draw comes from the plan
	res, ok = monolithicGreedy(done, sub, subOpt, subPlan, true, parent)
	if ok && sub.keepRuns {
		sub.lastRun.Store(&componentRun{
			colors: opt.Colors, samples: N, preferStay: opt.PreferStay,
			kernelStats: opt.KernelStats, flat: flat,
			plan: subPlan, res: &res,
		})
	}
	return res, ok, false
}
