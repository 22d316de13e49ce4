// Package core implements the paper's primary contribution: the HASTE-R
// objective (problem RP2) and the centralized offline scheduling algorithm
// (Algorithm 2, a tailored TabularGreedy over S-C tuples).
//
// A Problem bundles a model.Instance with its sparse per-pair slot
// energies P_r(s_i, o_j)·T_s and, built on first use, the dominant task
// sets Γ_i (Algorithm 1) of every charger. A Schedule fixes one
// dominant-set policy per charger per time slot — one element from every
// partition Θ_{i,k} of the partition matroid — and Evaluate computes the
// HASTE-R utility Σ_j w_j·U(harvested energy_j), ignoring switching
// delay. The switching-delay-aware HASTE utility of a schedule is
// computed by package sim.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/obs"
)

// Problem is a HASTE instance with everything precomputed that the
// schedulers need: the time horizon K, the energy each covered task
// harvests from each charger per slot and — on first use — the dominant
// task sets per charger (Gamma).
type Problem struct {
	In *model.Instance
	K  int // number of time slots spanned by the tasks

	// rows[i] is charger i's sparse slot-energy row: one CoverEntry per
	// chargeable task, ascending by task index, sliced out of a shared
	// arena. Entry j holds P_r(s_i, o_j)·T_s — the energy task j harvests
	// during one full slot in which charger i covers it. Pairs that are
	// not chargeable are simply absent (SlotEnergy reports 0 for them);
	// chargeable pairs whose anisotropic receive gain is exactly zero are
	// kept with De == 0, so the rows carry precisely the coverage
	// relation dominant extraction sees. This replaced the dense n×m
	// table, whose O(n·m) memory (~1 TB at 10⁶ tasks) was the compile
	// wall: the charging model is strictly local, so row lengths scale
	// with the tasks within radius D, not with m.
	rows [][]CoverEntry

	// kern is the per-task half of the flat evaluation kernel (kernel.go):
	// the kernel choice and the SoA task data the hot marginal loops read.
	kern kernel

	// mono holds the field-wide dominant sets and compiled cover lists
	// (kernel.go), valid once monoBuilt is set — the first time a caller
	// needs them: a monolithic run, an EnergyState, Gamma,
	// CompiledCovers. A sharded run reads only its components'
	// sub-Problems, so it never builds them. monoMu serializes the build,
	// which sets monoBuilt after writing mono; a reader that sees the
	// flag set reads mono without the lock. mono is held by value, not
	// behind a pointer, so the hot scans reach it in as few dependent
	// loads as the per-task columns.
	monoMu    sync.Mutex
	monoBuilt atomic.Bool
	mono      monolith

	// statePool recycles EnergyStates between runs; see AcquireState.
	// statesOut counts AcquireState calls minus ReleaseState returns —
	// the pool's get/put balance. Leak tests (and the service layer's
	// cancellation tests) assert it returns to its baseline. The pool is
	// its own allocation, and pooled states drop their Problem: the
	// runtime keeps every pool used since the last collection reachable
	// until the next one, and a pool embedded here would keep the whole
	// dropped Problem alive with it.
	statePool *sync.Pool
	statesOut atomic.Int64

	// Shard-and-stitch caches (shard.go): the coverage graph's connected
	// components, computed at most once per Problem, and one slot per
	// component for its sub-Problem, which the sharded run that first
	// reaches the component compiles. subs is an atomic pointer so
	// StatesInUse can aggregate sub-problem balances while another run is
	// compiling them. The Once guards are pointers so the delta operations
	// (incremental.go) can invalidate a cache by re-pointing its guard — a
	// value sync.Once cannot be reset or copied.
	compsOnce   *sync.Once
	comps       []Component
	schedulable int

	subsOnce *sync.Once
	subs     atomic.Pointer[[]subSlot]

	// Incremental-scheduling state (incremental.go). chargerGrid is the
	// lazily built spatial index over the (static) charger positions that
	// delta operations use to find the chargers a task mutation touches.
	// prevSubs carries the component sub-Problems of the pre-mutation
	// decomposition so the next subProblems rebuild can adopt the ones no
	// mutation touched instead of recompiling them.
	chargerGrid *geom.GridIndex
	prevSubs    *subCache

	// Component-run memo (warm.go). keepRuns is set on problems made by
	// CloneCompiled and copied onto the sub-Problems compiled under them;
	// on such a sub-Problem, lastRun holds the record of its latest
	// finished component run, which the next run with the same options
	// and plan slice returns instead of re-running.
	keepRuns bool
	lastRun  atomic.Pointer[componentRun]
}

// NewProblem validates the instance and builds the sparse slot-energy
// rows through a spatial grid index over the tasks, plus the kernel's
// per-task columns. The whole compile is O((n+m)·density) in time and
// memory — density being the tasks within radius D of a charger —
// instead of the dense all-pairs O(n·m). The dominant task sets of every
// charger and the flat kernel's cover lists are built from the rows on
// first use (Gamma, a monolithic run, an EnergyState), so a sharded run,
// which compiles only its components, never pays for them. Every
// published energy, Gamma and cover list is bit-identical to the
// dense-era compile (the grid feeds dominant extraction the chargeable
// tasks in the same ascending order the full scan did).
func NewProblem(in *model.Instance) (*Problem, error) {
	return newProblem(in, obs.SpanRef{})
}

// NewProblemTraced is NewProblem with the compile phases — grid build and
// slot-energy rows — recorded as a "compile" span tree on tr. A monolithic
// TabularGreedy run traced on tr records the deferred dominant extraction
// and kernel compile as a second "compile" tree when it builds them. A
// nil tr is exactly NewProblem; the probe only observes, so the compiled
// Problem is identical either way.
func NewProblemTraced(in *model.Instance, tr *obs.Trace) (*Problem, error) {
	return newProblem(in, tr.Root())
}

func newProblem(in *model.Instance, parent obs.SpanRef) (*Problem, error) {
	sp := parent.Start("compile")
	defer sp.End()
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := newProblemFromRows(in, chargeableRows(in, sp))
	sp.Int("chargers", int64(len(in.Chargers))).Int("tasks", int64(len(in.Tasks)))
	return p, nil
}

// newProblemFromRows assembles a Problem around already built rows of a
// valid instance.
func newProblemFromRows(in *model.Instance, rows [][]CoverEntry) *Problem {
	return &Problem{
		In:        in,
		K:         in.Horizon(),
		rows:      rows,
		kern:      newKernel(in),
		compsOnce: new(sync.Once),
		subsOnce:  new(sync.Once),
		statePool: new(sync.Pool),
	}
}

// chargeableRows builds the per-charger sparse slot-energy rows: for
// every charger, the grid index proposes the tasks within one cell (≥ D)
// of it, the exact Chargeable predicate filters them, and the survivors
// get their per-slot energy — the same expression, evaluated on the same
// (charger, task) pairs, as the dense-era table. One arena backs all
// rows; offsets are resolved after the arena stops growing. parent
// receives the grid_build / slot_energy_rows phase spans (zero = off).
func chargeableRows(in *model.Instance, parent obs.SpanRef) [][]CoverEntry {
	n := len(in.Chargers)
	rows := make([][]CoverEntry, n)
	if len(in.Tasks) == 0 {
		return rows
	}
	gsp := parent.Start("grid_build")
	pts := make([]geom.Point, len(in.Tasks))
	for j := range in.Tasks {
		pts[j] = in.Tasks[j].Pos
	}
	grid := geom.NewGridIndex(pts, in.Params.Radius)
	gsp.End()
	rsp := parent.Start("slot_energy_rows")
	offs := make([]int, n+1)
	var arena []CoverEntry
	var buf []int32
	for i := range in.Chargers {
		c := in.Chargers[i]
		buf = grid.Candidates(c.Pos, buf[:0])
		for _, j := range buf {
			t := in.Tasks[j]
			if !in.Params.Chargeable(c, t) {
				continue
			}
			pw := in.Params.PowerBetween(c.Pos, t.Pos)
			if in.Params.AnisotropicGain {
				pw *= in.Params.ReceiveGain(c, t)
			}
			arena = append(arena, CoverEntry{Task: j, De: pw * in.Params.SlotSeconds})
		}
		offs[i+1] = len(arena)
	}
	for i := range rows {
		rows[i] = arena[offs[i]:offs[i+1]:offs[i+1]]
	}
	rsp.Int("entries", int64(len(arena))).End()
	return rows
}

// SlotEnergy returns the energy task j harvests from charger i over one
// full covered slot (0 when the pair is not chargeable). The lookup is a
// binary search of charger i's sparse row — O(log row length), where the
// row holds only the tasks within charging radius of charger i.
func (p *Problem) SlotEnergy(i, j int) float64 {
	row := p.rows[i]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(row[mid].Task) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && int(row[lo].Task) == j {
		return row[lo].De
	}
	return 0
}

// ChargerRow returns charger i's sparse slot-energy row: one entry per
// chargeable task, ascending by task index. Unlike compiled policy cover
// lists, a row entry's De may be exactly 0 (a chargeable pair whose
// anisotropic receive gain vanishes) — filter De > 0 when only energy
// flow matters. The returned slice is shared; callers must not mutate it.
func (p *Problem) ChargerRow(i int) []CoverEntry { return p.rows[i] }

// Schedule assigns each charger one policy index per time slot:
// Policy[i][k] indexes into Gamma()[i]; -1 means unassigned (the charger
// keeps whatever orientation it had and covers nothing that the objective
// credits). Holding at most one policy per cell (i, k), every Schedule is
// an independent set of Lemma 4.1's partition matroid, and a fully
// assigned one is a basis.
type Schedule struct {
	Policy [][]int
}

// NewSchedule returns an all-unassigned schedule for n chargers over K
// slots.
func NewSchedule(n, k int) Schedule {
	s := Schedule{Policy: make([][]int, n)}
	for i := range s.Policy {
		row := make([]int, k)
		for j := range row {
			row[j] = -1
		}
		s.Policy[i] = row
	}
	return s
}

// Clone deep-copies the schedule.
func (s Schedule) Clone() Schedule {
	c := Schedule{Policy: make([][]int, len(s.Policy))}
	for i, row := range s.Policy {
		c.Policy[i] = append([]int(nil), row...)
	}
	return c
}

// Slots returns the number of slots the schedule spans.
func (s Schedule) Slots() int {
	if len(s.Policy) == 0 {
		return 0
	}
	return len(s.Policy[0])
}

// EnergyState tracks the energy accumulated by every task under a
// partially built schedule and maintains the HASTE-R objective value
// incrementally. Marginals are exactly the quantities the greedy
// algorithms compare; thanks to the concavity of U they shrink as energy
// accumulates, which is what makes f submodular (Lemma 4.2).
type EnergyState struct {
	p      *Problem
	energy []float64 // joules harvested per task
	total  float64   // Σ_j w_j · U(energy_j)

	// uval[j] caches U(energy_j) for the flat kernel, maintained at
	// apply/restore time with exactly the reference branches of
	// model.LinearBounded.Of — so the hot marginal loops pay one division
	// per scanned entry (for U(e+Δe)) instead of two. U(0) = 0 is the
	// zero value, so a fresh or Reset state is already consistent.
	uval []float64

	// satur[j] records energy_j ≥ E_j (flat kernel only, kernel.go): the
	// task's utility delta is exactly zero from then on, so both marginal
	// scans skip it. Like uval it is kept at apply/restore time.
	satur []bool

	// pooled marks states handed out by AcquireState and not yet
	// returned, so the statesOut balance counts each checkout exactly
	// once even if ReleaseState is called on a NewEnergyState state or
	// twice on the same one. A state sitting in the pool has a nil p, so
	// a second release does not put it there twice — two later checkouts
	// would then share it.
	pooled bool
}

// NewEnergyState returns the empty state (f(∅) = 0).
func NewEnergyState(p *Problem) *EnergyState {
	m := len(p.In.Tasks)
	p.monolith()
	return &EnergyState{p: p, energy: make([]float64, m), uval: make([]float64, m), satur: make([]bool, m)}
}

// mono returns the policy space of the state's problem, which
// NewEnergyState and AcquireState have built.
func (es *EnergyState) mono() *monolith { return &es.p.mono }

// Reset clears accumulated energy, reusing the allocations.
func (es *EnergyState) Reset() {
	clear(es.energy)
	clear(es.uval)
	clear(es.satur)
	es.total = 0
}

// Total returns the current objective value Σ_j w_j·U(e_j).
func (es *EnergyState) Total() float64 { return es.total }

// Energy returns the energy task j has accumulated so far.
func (es *EnergyState) Energy(j int) float64 { return es.energy[j] }

// Marginal returns the objective increase of assigning policy pol to
// charger i at slot k on top of the current state: only tasks covered by
// the policy AND active during slot k accrue energy.
//
// Marginal and Apply dispatch to the flat kernel (kernel.go) when the
// instance uses the default linear-and-bounded utility; the *Generic
// bodies below are the reference semantics, kept verbatim as the fallback
// for custom utilities and as the oracle of the differential kernel
// sweep. Both paths are bit-identical by contract.
func (es *EnergyState) Marginal(i, k, pol int) float64 {
	if es.p.kern.linear {
		return es.marginalFlat(i, k, pol)
	}
	return es.marginalGeneric(i, k, pol)
}

func (es *EnergyState) marginalGeneric(i, k, pol int) float64 {
	u := es.p.In.U()
	var gain float64
	for _, j := range es.mono().gamma[i][pol].Covers {
		t := &es.p.In.Tasks[j]
		if !t.ActiveAt(k) {
			continue
		}
		de := es.p.SlotEnergy(i, j)
		if de == 0 {
			continue
		}
		gain += t.Weight * (u.Of(es.energy[j]+de, t.Energy) - u.Of(es.energy[j], t.Energy))
	}
	return gain
}

// Apply commits policy pol for charger i at slot k, updating energies and
// the objective, and returns the realized gain.
func (es *EnergyState) Apply(i, k, pol int) float64 {
	if es.p.kern.linear {
		return es.applyFlat(i, k, pol)
	}
	return es.applyGeneric(i, k, pol)
}

func (es *EnergyState) applyGeneric(i, k, pol int) float64 {
	u := es.p.In.U()
	var gain float64
	for _, j := range es.mono().gamma[i][pol].Covers {
		t := &es.p.In.Tasks[j]
		if !t.ActiveAt(k) {
			continue
		}
		de := es.p.SlotEnergy(i, j)
		if de == 0 {
			continue
		}
		gain += t.Weight * (u.Of(es.energy[j]+de, t.Energy) - u.Of(es.energy[j], t.Energy))
		es.energy[j] += de
	}
	es.total += gain
	return gain
}

// Restore rewinds the given tasks' energies and the objective total to a
// previously captured snapshot. It lets a backtracking search (package
// opt) undo a policy application without copying the whole state; callers
// must pass exactly the energies that were captured before the Apply.
func (es *EnergyState) Restore(ids []int, vals []float64, total float64) {
	for idx, j := range ids {
		es.energy[j] = vals[idx]
	}
	es.total = total
	// A rewind can pull a task back below its requirement (or, on an
	// upward restore, past it) — re-establish the saturation bits for
	// exactly the touched tasks.
	es.resyncSaturation(ids)
}

// Evaluate computes the HASTE-R objective f(X) of a schedule: the total
// weighted utility with every assigned slot counted in full (no switching
// delay).
func Evaluate(p *Problem, s Schedule) float64 { return evaluate(p, s, nil) }

// evaluate is Evaluate that also stores, when gains is non-nil, the gain
// of every assigned cell (i,k) at gains[i*K+k], K being the schedule's
// slot count.
func evaluate(p *Problem, s Schedule, gains []float64) float64 {
	es := p.AcquireState()
	defer p.ReleaseState(es)
	K := s.Slots()
	for i, row := range s.Policy {
		for k, pol := range row {
			if pol >= 0 {
				g := es.Apply(i, k, pol)
				if gains != nil {
					gains[i*K+k] = g
				}
			}
		}
	}
	return es.Total()
}
