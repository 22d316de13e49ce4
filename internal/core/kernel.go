package core

import (
	"sort"

	"haste/internal/dominant"
	"haste/internal/model"
	"haste/internal/obs"
)

// This file is the flat marginal-evaluation kernel: the precompiled data
// layout and the inlined inner loops behind EnergyState.Marginal,
// MarginalScaled and ApplyScaled. The reference semantics are the generic
// loops in problem.go (pointer-chased Gamma covers + interface-dispatched
// Utility); the kernel must reproduce them bit for bit, which
// internal/difftest's kernel sweep and the property tests in
// kernel_test.go enforce. DESIGN.md §4 documents the layout and the
// bit-identity argument.
//
// Three ideas, compiled at most once per Problem:
//
//  1. Flat cover lists. Every Gamma()[i][pol].Covers is compiled into a
//     dense []CoverEntry of (task, slotEnergy) pairs with zero-energy
//     pairs dropped, so the inner loop never touches model.Instance, the
//     2D slotEnergy table, or the de == 0 branch. Task weight, required
//     energy, release and end live in parallel SoA arrays indexed by task.
//  2. Inlined utility. When the instance uses the paper's default
//     linear-and-bounded utility U(x) = min(x/E, 1), the per-task utility
//     delta is computed inline with exactly LinearBounded.Of's branches —
//     no interface dispatch. Any other Utility takes the generic fallback
//     path in problem.go, unchanged from the pre-kernel code.
//  3. Work skipping that cannot change results. Per-policy slot windows
//     [winLo, winHi) skip whole scans in slots where no compiled task is
//     active (every term of the reference sum would be skipped by its
//     ActiveAt check), and per-EnergyState saturation pruning removes a
//     task from the scan lists of every policy covering it the moment its
//     energy reaches E_j (its utility delta is exactly +0.0 from then on,
//     and x + 0.0 == x for every x ≥ 0 in IEEE 754; gains are sums of
//     non-negative terms, so -0.0 never occurs). Removal preserves the
//     ascending-task scan order, so the surviving terms accumulate in the
//     reference order and not a single rounding step can differ.

// CoverEntry is one compiled (task, per-slot energy) pair of a policy's
// cover list. Compiled lists drop pairs with zero slot energy and keep
// ascending task order — the accumulation order of the reference kernel.
// The entry is deliberately minimal (16 bytes): per-task constants
// (weight, requirement, window) stay in the kernel's small SoA arrays,
// which the scans keep fully cached — fatter entries measurably lose more
// to memory traffic than they save in gather loads.
type CoverEntry struct {
	Task int32
	De   float64 // energy the task harvests per fully covered slot, > 0
}

// KernelStats counts the selection work of the flat kernel over a
// TabularGreedy run's sample states, when Options.KernelStats is set.
// The counts are those of a per-state scan — one marginal evaluation per
// (policy, affected sample) of every greedy step — whichever scan ran.
type KernelStats struct {
	Calls   int64 // per-state marginal evaluations
	Visited int64 // cover entries left to scan after windows and pruning
	Offered int64 // entries a scan without windows/pruning would visit
	Pruned  int64 // live-list removals of the tasks saturated at run end
}

func (s *KernelStats) add(o KernelStats) {
	s.Calls += o.Calls
	s.Visited += o.Visited
	s.Offered += o.Offered
	s.Pruned += o.Pruned
}

// countStep adds the work a per-state scan does in the greedy step of
// charger i at slot k: every policy is one call per affected sample, each
// offered the policy's whole compiled list and, when k lies in the
// policy's window, visiting the sample's live list.
func (s *KernelStats) countStep(p *Problem, states []*EnergyState, affected []int, i, k int) {
	m, k32, a := &p.mono, int32(k), int64(len(affected))
	for fp := int(m.polOff[i]); fp < int(m.polOff[i])+len(m.gamma[i]); fp++ {
		s.Calls += a
		s.Offered += a * int64(len(m.entries[fp]))
		if k32 < m.winLo[fp] || k32 >= m.winHi[fp] {
			continue
		}
		for _, smp := range affected {
			s.Visited += int64(len(states[smp].scanList(fp)))
		}
	}
}

// countPruned adds the live-list removals standing on es: one per
// compiled list that holds a saturated task.
func (s *KernelStats) countPruned(es *EnergyState) {
	taskPols := es.mono().taskPols
	for j, sat := range es.satur {
		if sat {
			s.Pruned += int64(len(taskPols[j]))
		}
	}
}

// kernel is the per-task half of the flat evaluation kernel, built by
// NewProblem: the kernel choice and the SoA copies of the per-task fields
// the inner loops read. The per-policy half lives in monolith, which is
// built on first use.
type kernel struct {
	linear   bool // inlined LinearBounded fast path active
	linearOK bool // the instance's utility is the paper's LinearBounded

	weight  []float64
	req     []float64
	release []int32
	end     []int32
}

func newKernel(in *model.Instance) kernel {
	m := len(in.Tasks)
	kn := kernel{
		weight:  make([]float64, m),
		req:     make([]float64, m),
		release: make([]int32, m),
		end:     make([]int32, m),
	}
	_, kn.linearOK = in.U().(model.LinearBounded)
	kn.linear = kn.linearOK
	for j := range in.Tasks {
		t := &in.Tasks[j]
		kn.weight[j], kn.req[j] = t.Weight, t.Energy
		kn.release[j], kn.end[j] = int32(t.Release), int32(t.End)
	}
	return kn
}

// monolith is the field-wide policy space of a Problem: the dominant task
// sets Γ_i of every charger (Algorithm 1) and their compiled cover lists.
// A sharded run never reads it — each component's sub-Problem has its
// own — so it is built on first use (Problem.monolith). It is a pure
// function of the rows and the per-task columns: a delta operation drops
// it, and the next use rebuilds it from the patched rows.
type monolith struct {
	gamma [][]dominant.Policy // Γ_i for every charger

	// Flat policy index space: policy pol of charger i is fp =
	// polOff[i] + pol. entries[fp] is the compiled cover list, sliced out
	// of one shared arena; winLo/winHi is the union slot window of its
	// tasks ([0,0) for empty lists, so they short-circuit everywhere).
	polOff  []int32
	entries [][]CoverEntry
	winLo   []int32
	winHi   []int32

	// taskPols[j]: the flat policies whose compiled list contains task j —
	// the reverse index saturation pruning walks when task j crosses E_j.
	taskPols [][]int32
}

// monolith returns the problem's field-wide dominant sets and compiled
// cover lists, building them the first time any caller needs them.
func (p *Problem) monolith() *monolith {
	if !p.monoBuilt.Load() {
		p.buildMonolith(nil)
	}
	return &p.mono
}

// buildMonolith builds and publishes the monolith unless another caller
// already has, recording a "compile" span tree as a root of tr (nil: off)
// when it does the work.
func (p *Problem) buildMonolith(tr *obs.Trace) {
	p.monoMu.Lock()
	defer p.monoMu.Unlock()
	if p.monoBuilt.Load() {
		return
	}
	sp := tr.Start("compile")
	p.mono = compileMonolith(p, sp)
	sp.End()
	p.monoBuilt.Store(true)
}

// compileMonolith runs dominant extraction on every charger's row
// candidates and compiles the flat cover lists, recording the
// dominant_extract and kernel_compile phases under parent.
func compileMonolith(p *Problem, parent obs.SpanRef) monolith {
	in := p.In
	dsp := parent.Start("dominant_extract")
	m := monolith{gamma: make([][]dominant.Policy, len(in.Chargers))}
	nPols := 0
	var ids []int // candidate buffer, reused across chargers
	for i := range in.Chargers {
		ids = ids[:0]
		for _, e := range p.rows[i] {
			ids = append(ids, int(e.Task))
		}
		m.gamma[i] = dominant.ExtractSubset(in, i, ids)
		nPols += len(m.gamma[i])
	}
	dsp.Int("policies", int64(nPols)).End()

	ksp := parent.Start("kernel_compile")
	defer ksp.End()
	m.polOff = make([]int32, len(m.gamma))
	off, total := 0, 0
	for i, g := range m.gamma {
		m.polOff[i] = int32(off)
		off += len(g)
		for _, pol := range g {
			for _, j := range pol.Covers {
				if p.SlotEnergy(i, j) != 0 {
					total++
				}
			}
		}
	}
	m.entries = make([][]CoverEntry, nPols)
	m.winLo = make([]int32, nPols)
	m.winHi = make([]int32, nPols)
	// One CoverEntry per covered task with non-zero slot energy, in the
	// cover order (ascending task), plus the union slot window of the
	// compiled tasks ([0,0) for an empty list).
	kn := &p.kern
	arena := make([]CoverEntry, 0, total)
	fp := 0
	for i, g := range m.gamma {
		for _, pol := range g {
			start := len(arena)
			for _, j := range pol.Covers {
				de := p.SlotEnergy(i, j)
				if de == 0 {
					continue
				}
				arena = append(arena, CoverEntry{Task: int32(j), De: de})
				if start == len(arena)-1 || kn.release[j] < m.winLo[fp] {
					m.winLo[fp] = kn.release[j]
				}
				if kn.end[j] > m.winHi[fp] {
					m.winHi[fp] = kn.end[j]
				}
			}
			m.entries[fp] = arena[start:len(arena):len(arena)]
			fp++
		}
	}
	// taskPols[j] lists, ascending, every flat policy whose compiled list
	// contains task j.
	m.taskPols = make([][]int32, len(in.Tasks))
	for fp, list := range m.entries {
		for _, e := range list {
			m.taskPols[e.Task] = append(m.taskPols[e.Task], int32(fp))
		}
	}
	return m
}

// flatPol maps (charger, policy) to the flat policy index.
func (m *monolith) flatPol(i, pol int) int { return int(m.polOff[i]) + pol }

// Gamma returns the dominant task sets Γ_i of every charger: Gamma()[i]
// lists charger i's policies, and a Schedule's Policy[i][k] indexes into
// it. The first call builds them (with the flat kernel's cover lists) for
// the whole field; a sharded TabularGreedy run never needs them. The
// returned slices are shared; callers must not mutate them.
func (p *Problem) Gamma() [][]dominant.Policy { return p.monolith().gamma }

// CompiledCovers returns the flat kernel's compiled cover list of policy
// pol of charger i: (task, slot energy) pairs with zero-energy pairs
// dropped, in ascending task order. Executors (package sim, emr) iterate
// it instead of pointer-chasing Gamma()[i][pol].Covers through the
// instance.
func (p *Problem) CompiledCovers(i, pol int) []CoverEntry {
	m := p.monolith()
	return m.entries[m.flatPol(i, pol)]
}

// PolicyWindow returns the union activity window [lo, hi) of the policy's
// compiled tasks: outside it the policy cannot charge anything. Empty
// compiled lists report [0, 0).
func (p *Problem) PolicyWindow(i, pol int) (lo, hi int) {
	m := p.monolith()
	fp := m.flatPol(i, pol)
	return int(m.winLo[fp]), int(m.winHi[fp])
}

// FlatKernel reports whether the inlined linear-bounded kernel is active
// (false for instances with a custom Utility, which take the generic
// interface-dispatch path).
func (p *Problem) FlatKernel() bool { return p.kern.linear }

// SetFlatKernel forces the evaluation kernel choice: SetFlatKernel(false)
// routes every EnergyState of this problem through the generic
// interface-dispatch fallback even for the default utility, and
// SetFlatKernel(true) re-enables the flat kernel where it is sound. This
// is a differential-testing hook (internal/difftest sweeps old vs new
// kernel with it); both settings are bit-identical by contract.
func (p *Problem) SetFlatKernel(on bool) { p.kern.linear = on && p.kern.linearOK }

// WeightedValue returns w_j·U(e) for task j, inlining the default
// linear-bounded utility when the flat kernel is active.
func (p *Problem) WeightedValue(j int, e float64) float64 {
	if kn := &p.kern; kn.linear {
		req := kn.req[j]
		var u float64
		if e >= req {
			u = 1
		} else if e > 0 {
			u = e / req
		}
		return kn.weight[j] * u
	}
	t := &p.In.Tasks[j]
	return t.Weight * p.In.U().Of(e, t.Energy)
}

// WeightedDelta returns w_j·(U(e+de) − U(e)) for task j — the utility
// increment one charging contribution adds — inlining the default
// linear-bounded utility when the flat kernel is active. The distributed
// online agents use it for their local energy views; it is bit-identical
// to the interface expression for every input.
func (p *Problem) WeightedDelta(j int, e, de float64) float64 {
	if kn := &p.kern; kn.linear {
		req := kn.req[j]
		var u1 float64
		if e >= req {
			u1 = 1
		} else if e > 0 {
			u1 = e / req
		}
		x := e + de
		var u2 float64
		if x >= req {
			u2 = 1
		} else if x > 0 {
			u2 = x / req
		}
		return kn.weight[j] * (u2 - u1)
	}
	t := &p.In.Tasks[j]
	u := p.In.U()
	return t.Weight * (u.Of(e+de, t.Energy) - u.Of(e, t.Energy))
}

// AcquireState returns an empty EnergyState, reusing a pooled one when
// available. Pair with ReleaseState on hot paths (a greedy run per
// Monte-Carlo sample, an Evaluate per step) to stop per-run allocation
// churn; NewEnergyState remains the plain allocating constructor.
func (p *Problem) AcquireState() *EnergyState {
	p.statesOut.Add(1)
	m := p.monolith()
	if v := p.statePool.Get(); v != nil {
		es := v.(*EnergyState)
		// A pooled state that predates a delta operation (incremental.go)
		// is sized for the old task count or the old flat-policy space —
		// drop it and allocate fresh instead of resurrecting stale caches.
		if len(es.energy) == len(p.In.Tasks) &&
			(es.live == nil || len(es.live) == len(m.entries)) {
			es.p = p
			es.Reset()
			es.pooled = true
			return es
		}
	}
	es := NewEnergyState(p)
	es.pooled = true
	return es
}

// ReleaseState returns a state obtained from AcquireState (or
// NewEnergyState) to the problem's pool. The caller must not use it
// afterwards. The pooled state keeps no pointer into the Problem, so a
// Problem nobody references is garbage at the next collection.
func (p *Problem) ReleaseState(es *EnergyState) {
	if es != nil && es.p == p {
		if es.pooled {
			es.pooled = false
			p.statesOut.Add(-1)
		}
		es.p = nil
		clear(es.live) // copy-on-write rows may alias the compiled cover lists
		p.statePool.Put(es)
	}
}

// StatesInUse returns the pool's get/put balance: AcquireState checkouts
// not yet returned by ReleaseState, summed over this problem and every
// compiled component sub-Problem (sharded runs acquire states on the
// subs). Every code path that acquires states — including a
// TabularGreedyCtx run abandoned mid-stage, sharded or not — must drive
// the balance back to what it found, which the cancellation and service
// tests assert.
func (p *Problem) StatesInUse() int64 {
	out := p.statesOut.Load()
	if slots := p.subs.Load(); slots != nil {
		for ci := range *slots {
			if sub := (*slots)[ci].p.Load(); sub != nil {
				out += sub.statesOut.Load()
			}
		}
	}
	return out
}

// scanList returns the list the flat kernel should scan for flat policy
// fp: the state's saturation-pruned live list when one was materialized,
// the problem's shared compiled list otherwise.
func (es *EnergyState) scanList(fp int) []CoverEntry {
	if es.live != nil {
		if row := es.live[fp]; row != nil {
			return row
		}
	}
	return es.mono().entries[fp]
}

// marginalFlat is Marginal/MarginalScaled on the flat kernel. frac scales
// every per-slot contribution; scaled is false on the frac == 1 path,
// which skips the multiply and the de == 0 re-check (compiled entries are
// nonzero, and the reference only re-checks after scaling).
func (es *EnergyState) marginalFlat(i, k, pol int, frac float64, scaled bool) float64 {
	kn, m := &es.p.kern, es.mono()
	fp := m.flatPol(i, pol)
	k32 := int32(k)
	if k32 < m.winLo[fp] || k32 >= m.winHi[fp] {
		return 0
	}
	energy, uval := es.energy, es.uval
	var gain float64
	for _, e := range es.scanList(fp) {
		j := e.Task
		if k32 < kn.release[j] || k32 >= kn.end[j] {
			continue
		}
		de := e.De
		if scaled {
			de *= frac
			if de == 0 {
				continue
			}
		}
		// Inlined LinearBounded.Of delta. U(energy[j]) comes from the
		// uval cache (maintained branch-exactly at apply/restore time),
		// so only U(energy[j]+de) costs a division. Live entries are
		// unsaturated (energy < req), so x = energy+de > 0 always.
		req := kn.req[j]
		u2 := 1.0
		if x := energy[j] + de; x < req {
			u2 = x / req
		}
		gain += kn.weight[j] * (u2 - uval[j])
	}
	return gain
}

// applyScaledFlat is ApplyScaled on the flat kernel. It walks the full
// compiled list — not the pruned one — because energy keeps accruing past
// saturation in the reference semantics (only the utility delta is zero),
// and Energy exposes those energies. Saturation crossings
// trigger the pruning of the task from every policy's live list.
func (es *EnergyState) applyScaledFlat(i, k, pol int, frac float64) float64 {
	kn, m := &es.p.kern, es.mono()
	fp := m.flatPol(i, pol)
	k32 := int32(k)
	var gain float64
	if k32 >= m.winLo[fp] && k32 < m.winHi[fp] {
		for _, e := range m.entries[fp] {
			j := e.Task
			if k32 < kn.release[j] || k32 >= kn.end[j] {
				continue
			}
			de := e.De * frac
			if de == 0 {
				continue
			}
			ej := es.energy[j]
			req := kn.req[j]
			x := ej + de
			u2 := 1.0
			if x < req {
				u2 = x / req
			}
			// uval holds U(ej) exactly (1 while saturated — set at the
			// crossing and constant from then on).
			gain += kn.weight[j] * (u2 - es.uval[j])
			es.energy[j] = x
			es.uval[j] = u2
			if ej < req && x >= req {
				es.saturate(j)
			}
		}
	}
	es.total += gain
	return gain
}

// saturate removes task j from the live scan list of every policy whose
// compiled list contains it. Removal keeps ascending task order, so the
// surviving entries still accumulate in the reference order. Lists are
// materialized copy-on-write: a nil live row means "no contained task has
// ever saturated", so the problem's shared list is still exact for it.
func (es *EnergyState) saturate(j int32) {
	m := es.mono()
	if es.satur == nil {
		es.satur = make([]bool, len(es.energy))
	}
	es.satur[j] = true
	if es.live == nil {
		es.live = make([][]CoverEntry, len(m.entries))
	}
	for _, fp := range m.taskPols[j] {
		row := es.live[fp]
		if row == nil {
			shared := m.entries[fp]
			row = make([]CoverEntry, 0, len(shared)-1)
			for _, e := range shared {
				if e.Task != j {
					row = append(row, e)
				}
			}
		} else {
			idx := searchEntry(row, j)
			row = append(row[:idx], row[idx+1:]...)
		}
		es.live[fp] = row
	}
}

// unsaturate reinserts task j into every live list it was pruned from —
// Restore can rewind a task's energy back below its requirement (the
// branch-and-bound solver does exactly that when backtracking).
func (es *EnergyState) unsaturate(j int) {
	m := es.mono()
	es.satur[j] = false
	j32 := int32(j)
	for _, fp := range m.taskPols[j] {
		shared := m.entries[fp]
		e := shared[searchEntry(shared, j32)]
		row := es.live[fp]
		idx := searchEntry(row, j32)
		row = append(row, CoverEntry{})
		copy(row[idx+1:], row[idx:])
		row[idx] = e
		es.live[fp] = row
	}
}

// resyncSaturation re-establishes the flat kernel's caches for the given
// tasks after their energies changed by fiat (Restore): uval must again
// equal U(energy_j) branch-exactly, and live lists must contain exactly
// the tasks with energy below their requirement.
func (es *EnergyState) resyncSaturation(ids []int) {
	kn := &es.p.kern
	if !kn.linear {
		return
	}
	for _, j := range ids {
		ej, req := es.energy[j], kn.req[j]
		var u float64
		if ej >= req {
			u = 1
		} else if ej > 0 {
			u = ej / req
		}
		es.uval[j] = u
		sat := es.satur != nil && es.satur[j]
		now := ej >= req
		switch {
		case sat && !now:
			es.unsaturate(j)
		case !sat && now:
			es.saturate(int32(j))
		}
	}
}

// searchEntry returns the position of (or insertion point for) task j in
// a compiled list sorted by ascending task.
func searchEntry(row []CoverEntry, j int32) int {
	return sort.Search(len(row), func(i int) bool { return row[i].Task >= j })
}

// gainsBatchFlat fills gains[pol] with the summed marginal of every policy
// of charger i at slot k over the affected sample states — the whole
// selection scan of one greedy step in a single call. Batching flips the
// loops entry-major: the slot-window test runs once per policy and the
// activity test once per entry instead of once per (sample, entry), which
// is where the per-state scan spends most of its time at C > 1.
//
// Bit-identity with the per-state reference (selectPolicy): a sample's
// contribution accumulates over the shared compiled list in order,
// skipping saturated tasks via the satur bitmap — exactly the terms, in
// exactly the order, of a live-list scan (live lists are order-preserving
// filtrations of the shared list by the same bitmap). Each sample gets a
// private accumulator in acc, and gains[pol] then reduces acc in affected
// order — the canonical reduction order of the per-state scan.
func gainsBatchFlat(p *Problem, states []*EnergyState, affected []int, i, k, nPol int, gains, acc []float64) {
	kn, m := &p.kern, &p.mono // built: the states exist
	base := int(m.polOff[i])
	k32 := int32(k)
	acc = acc[:len(affected)]
	for pol := 0; pol < nPol; pol++ {
		fp := base + pol
		if k32 < m.winLo[fp] || k32 >= m.winHi[fp] {
			gains[pol] = 0
			continue
		}
		for idx := range acc {
			acc[idx] = 0
		}
		for _, e := range m.entries[fp] {
			j := e.Task
			if k32 < kn.release[j] || k32 >= kn.end[j] {
				continue
			}
			de, req, w := e.De, kn.req[j], kn.weight[j]
			for idx, smp := range affected {
				st := states[smp]
				if st.satur != nil && st.satur[j] {
					continue
				}
				u2 := 1.0
				if x := st.energy[j] + de; x < req {
					u2 = x / req
				}
				acc[idx] += w * (u2 - st.uval[j])
			}
		}
		var g float64
		for _, v := range acc {
			g += v
		}
		gains[pol] = g
	}
}

// applyBatchFlat commits policy pol of charger i at slot k to every
// affected sample state in one entry-major pass — the batched counterpart
// of applyScaledFlat with frac = 1. Like it, the pass walks the full
// compiled list (energy accrues past saturation), realizes each sample's
// gain in shared-list order into a private acc slot, and adds it to the
// sample's total exactly once — the same single addition the per-state
// path performs, so totals are bit-identical.
func applyBatchFlat(p *Problem, states []*EnergyState, affected []int, i, k, pol int, acc []float64) {
	kn, m := &p.kern, &p.mono // built: the states exist
	fp := m.flatPol(i, pol)
	k32 := int32(k)
	if k32 < m.winLo[fp] || k32 >= m.winHi[fp] {
		return
	}
	acc = acc[:len(affected)]
	for idx := range acc {
		acc[idx] = 0
	}
	for _, e := range m.entries[fp] {
		j := e.Task
		if k32 < kn.release[j] || k32 >= kn.end[j] {
			continue
		}
		de, req, w := e.De, kn.req[j], kn.weight[j]
		for idx, smp := range affected {
			st := states[smp]
			ej := st.energy[j]
			x := ej + de
			u2 := 1.0
			if x < req {
				u2 = x / req
			}
			acc[idx] += w * (u2 - st.uval[j])
			st.energy[j] = x
			st.uval[j] = u2
			if ej < req && x >= req {
				st.saturate(j)
			}
		}
	}
	for idx, smp := range affected {
		states[smp].total += acc[idx]
	}
}
