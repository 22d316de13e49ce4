package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"haste/internal/geom"
	"haste/internal/model"
)

// This file is the incremental-scheduling layer: delta operations that
// patch a compiled Problem in place when one task arrives or leaves,
// instead of rebuilding everything through NewProblem. Production traffic
// for a charger network is task churn — tasks arrive, complete and expire
// every slot — and a full recompile per mutation repeats work whose
// inputs did not change: the charging model is strictly local, so a task
// mutation can only touch the chargers within radius D of it.
//
// Equivalence contract (enforced by internal/difftest's mutation-walk
// sweep): after any sequence of AddTask/RemoveTask calls, the Problem is
// bit-identical — instance, rows, Gamma, compiled kernel, K — to
// NewProblem of the mutated instance. Delta operations patch only the
// instance, the rows, the per-task kernel columns and K, and drop the
// dominant sets and cover lists (kernel.go's monolith) if they were
// built; the next caller that needs them rebuilds them through
// compileMonolith, a pure function of what was patched. The argument,
// piece by piece:
//
//   - Instance. AddTask appends with the next dense ID; RemoveTask
//     swap-removes (the last task moves into the freed ID), so IDs stay
//     dense without renumbering the whole tail. Task field values are
//     never altered.
//   - Rows. The affected chargers — those chargeable to the added,
//     removed or moved task, found through a grid index over the static
//     charger positions — get their sparse rows patched: an append (the
//     new task has the maximum ID, so ascending order is preserved), a
//     deletion, or a renumber-and-reposition of the moved task's entry.
//     Entry De values are never recomputed for surviving pairs, and the
//     De of a new pair is the same pure float expression chargeableRows
//     evaluates on the same inputs. Unaffected chargers' rows are, by
//     locality, exactly what a recompile would produce.
//   - Kernel columns and K. The per-task columns are patched like the
//     task table; K is the mutated instance's horizon.
//
// Mutations are copy-on-write against shared backing: a Problem obtained
// from CloneCompiled shares immutable row slices with its origin, so
// patches always allocate fresh rows for what they change.
//
// Concurrency: delta operations are NOT safe to run concurrently with
// anything else on the same Problem — schedulers, EnergyStates, other
// mutations. Callers serialize (the session layer in internal/serve does;
// its tests run the race detector over the full lifecycle). The statePool
// may hold EnergyStates sized for the pre-mutation problem; AcquireState
// discards stale ones instead of resurrecting them.

// subCache carries the pre-mutation decomposition so the next
// subProblems rebuild can adopt the component sub-Problems no mutation
// touched (see Problem.prevSubs).
type subCache struct {
	comps []Component
	subs  []*Problem
	dirty map[int]struct{} // global charger IDs a mutation touched
}

// CloneCompiled returns an independently mutable copy of the Problem
// without compiling anything: compiled immutable innards (row slices,
// the charger grid) are shared, while everything a delta operation
// writes in place — the instance's task table, the SoA columns, the
// per-charger row top-level — is copied. The clone builds its own
// dominant sets and cover lists on first use, and starts with a fresh
// state pool and fresh shard caches. This is what lets the session layer
// mutate a private copy of a cached Problem while concurrent requests
// keep solving the original.
// The sub-Problems a clone compiles remember their last component run
// (warm.go), so re-solving the clone re-runs only the components that
// changed.
func (p *Problem) CloneCompiled() *Problem {
	in := &model.Instance{
		Chargers: p.In.Chargers, // static; never mutated by delta ops
		Tasks:    append([]model.Task(nil), p.In.Tasks...),
		Params:   p.In.Params,
		Utility:  p.In.Utility,
	}
	c := &Problem{
		In:          in,
		K:           p.K,
		rows:        append([][]CoverEntry(nil), p.rows...),
		compsOnce:   new(sync.Once),
		subsOnce:    new(sync.Once),
		statePool:   new(sync.Pool),
		chargerGrid: p.chargerGrid,
		keepRuns:    true,
	}
	kn, src := &c.kern, &p.kern
	kn.linear, kn.linearOK = src.linear, src.linearOK
	kn.weight = append([]float64(nil), src.weight...)
	kn.req = append([]float64(nil), src.req...)
	kn.release = append([]int32(nil), src.release...)
	kn.end = append([]int32(nil), src.end...)
	return c
}

// AddTask appends a task to the compiled problem, patching the rows of
// exactly the chargers that can reach it. The task's ID is assigned (the next
// dense ID); the rest of t is validated like NewProblem would. The
// patched chargers are marked dirty, so the next subProblems rebuild
// recompiles their components.
func (p *Problem) AddTask(t model.Task) error {
	in := p.In
	t.ID = len(in.Tasks)
	if err := in.CheckTask(t); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	affected := p.affectedChargers(t)

	in.Tasks = append(in.Tasks, t)
	kn := &p.kern
	kn.weight = append(kn.weight, t.Weight)
	kn.req = append(kn.req, t.Energy)
	kn.release = append(kn.release, int32(t.Release))
	kn.end = append(kn.end, int32(t.End))
	if t.End > p.K {
		p.K = t.End
	}

	// The new task has the maximum ID: appending keeps rows ascending.
	j32 := int32(t.ID)
	for _, i := range affected {
		c := in.Chargers[i]
		pw := in.Params.PowerBetween(c.Pos, t.Pos)
		if in.Params.AnisotropicGain {
			pw *= in.Params.ReceiveGain(c, t)
		}
		row := p.rows[i]
		nrow := make([]CoverEntry, len(row)+1)
		copy(nrow, row)
		nrow[len(row)] = CoverEntry{Task: j32, De: pw * in.Params.SlotSeconds}
		p.rows[i] = nrow
	}

	p.invalidate(affected)
	return nil
}

// RemoveTask deletes task id from the compiled problem by swap-remove:
// the last task takes over the freed ID, so IDs stay dense and the patch
// touches only the chargers reaching the removed or the moved task.
func (p *Problem) RemoveTask(id int) error {
	in := p.In
	last := len(in.Tasks) - 1
	if id < 0 || id > last {
		return fmt.Errorf("core: RemoveTask(%d): task count is %d", id, last+1)
	}
	removed := in.Tasks[id]
	moved := in.Tasks[last]
	affected := p.affectedChargers(removed)
	movedAff := affected[:0:0]
	if id != last {
		movedAff = p.affectedChargers(moved)
		affected = unionSorted(affected, movedAff)
	}

	in.Tasks[id] = moved
	in.Tasks[id].ID = id
	in.Tasks = in.Tasks[:last]
	kn := &p.kern
	kn.weight[id] = kn.weight[last]
	kn.weight = kn.weight[:last]
	kn.req[id] = kn.req[last]
	kn.req = kn.req[:last]
	kn.release[id] = kn.release[last]
	kn.release = kn.release[:last]
	kn.end[id] = kn.end[last]
	kn.end = kn.end[:last]
	p.K = in.Horizon()

	// Patch the affected rows copy-on-write. A charger chargeable to the
	// removed task loses its entry; a charger chargeable to the moved task
	// has that entry — necessarily the row's last, since the moved task
	// held the maximum ID — renumbered to id and repositioned to keep the
	// row ascending. De values travel untouched.
	id32, last32 := int32(id), int32(last)
	for _, i := range affected {
		row := p.rows[i]
		nrow := make([]CoverEntry, 0, len(row))
		var movedDe float64
		hasMoved := false
		for _, e := range row {
			switch e.Task {
			case id32:
				// dropped (the removed task's entry)
			case last32:
				movedDe, hasMoved = e.De, true
			default:
				nrow = append(nrow, e)
			}
		}
		if hasMoved && id != last {
			at := sort.Search(len(nrow), func(x int) bool { return nrow[x].Task >= id32 })
			nrow = slices.Insert(nrow, at, CoverEntry{Task: id32, De: movedDe})
		}
		p.rows[i] = nrow
	}

	p.invalidate(affected)
	return nil
}

// affectedChargers returns, ascending, the chargers chargeable to t — the
// only chargers whose rows, policies or compiled lists a mutation of t
// can change. Candidates come from a grid over the static charger
// positions, built once per Problem (and shared by clones).
func (p *Problem) affectedChargers(t model.Task) []int {
	if p.chargerGrid == nil {
		pts := make([]geom.Point, len(p.In.Chargers))
		for i := range p.In.Chargers {
			pts[i] = p.In.Chargers[i].Pos
		}
		p.chargerGrid = geom.NewGridIndex(pts, p.In.Params.Radius)
	}
	var out []int
	for _, i := range p.chargerGrid.Candidates(t.Pos, nil) {
		if p.In.Params.Chargeable(p.In.Chargers[i], t) {
			out = append(out, int(i))
		}
	}
	return out
}

// unionSorted merges two ascending int slices without duplicates.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for r, v := range out {
		if r == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// invalidate resets everything a mutation makes stale: it drops the
// dominant sets and cover lists (rebuilt on first use) and the
// decomposition caches, stashing the outgoing component sub-Problems
// (plus the accumulated dirty charger set) so the next subProblems
// rebuild can adopt the untouched ones.
func (p *Problem) invalidate(dirty []int) {
	p.mono = monolith{}
	p.monoBuilt.Store(false)
	if slots := p.subs.Load(); slots != nil {
		subs := make([]*Problem, len(*slots))
		for ci := range subs {
			subs[ci] = (*slots)[ci].p.Load() // nil if no run reached it
		}
		p.prevSubs = &subCache{comps: p.comps, subs: subs, dirty: make(map[int]struct{}, len(dirty))}
	}
	if p.prevSubs != nil {
		for _, i := range dirty {
			p.prevSubs.dirty[i] = struct{}{}
		}
	}
	p.comps, p.schedulable = nil, 0
	p.compsOnce, p.subsOnce = new(sync.Once), new(sync.Once)
	p.subs.Store(nil)
}

// adoptableSub returns the stashed pre-mutation sub-Problem for a
// component of the current decomposition, when one exists with the exact
// same charger and task membership and no dirty member — in which case
// its sub-instance is bit-identical to what sliceInstance would produce
// now (a mutation that changed any of its tasks would have dirtied one of
// its chargers), so the compiled sub-Problem can be reused as-is.
func (sc *subCache) adoptableSub(comp Component) *Problem {
	if sc == nil || len(comp.Chargers) == 0 {
		return nil
	}
	for _, i := range comp.Chargers {
		if _, bad := sc.dirty[i]; bad {
			return nil
		}
	}
	for oldCi, old := range sc.comps {
		if len(old.Chargers) == 0 || old.Chargers[0] != comp.Chargers[0] {
			continue
		}
		if slices.Equal(old.Chargers, comp.Chargers) && slices.Equal(old.Tasks, comp.Tasks) {
			return sc.subs[oldCi]
		}
		return nil
	}
	return nil
}
