package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/workload"
)

// kernelProneInstance is randomFieldInstance tilted toward the kernel's
// edge cases: a fraction of zero-weight tasks, tiny energy requirements so
// tasks saturate quickly mid-run, and one charger pushed far outside the
// field so it contributes empty compiled cover lists.
func kernelProneInstance(rng *rand.Rand, n, m int) *model.Instance {
	in := randomFieldInstance(rng, n, m, 6, 25)
	for j := range in.Tasks {
		switch rng.Intn(4) {
		case 0:
			in.Tasks[j].Weight = 0
		case 1:
			in.Tasks[j].Energy = 1 + rng.Float64()*20 // saturates in a few slots
		}
	}
	in.Chargers[n-1].Pos = geom.Point{X: 1e6, Y: 1e6}
	return in
}

// The compiled cover lists must be exactly the Gamma covers with
// zero-energy pairs dropped, in ascending task order, and the per-policy
// windows must be the union of the compiled tasks' activity windows.
func TestCompileKernelLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := mustProblem(t, kernelProneInstance(rng, 4, 24))
	for i := range p.Gamma() {
		for pol := range p.Gamma()[i] {
			var want []CoverEntry
			wantLo, wantHi := 0, 0
			for _, j := range p.Gamma()[i][pol].Covers {
				de := p.SlotEnergy(i, j)
				if de == 0 {
					continue
				}
				want = append(want, CoverEntry{Task: int32(j), De: de})
				tk := p.In.Tasks[j]
				if len(want) == 1 || tk.Release < wantLo {
					wantLo = tk.Release
				}
				if tk.End > wantHi {
					wantHi = tk.End
				}
			}
			got := p.CompiledCovers(i, pol)
			if len(got) != len(want) {
				t.Fatalf("charger %d pol %d: %d entries, want %d", i, pol, len(got), len(want))
			}
			for idx := range want {
				if got[idx] != want[idx] {
					t.Fatalf("charger %d pol %d entry %d: %+v want %+v", i, pol, idx, got[idx], want[idx])
				}
				if idx > 0 && got[idx].Task <= got[idx-1].Task {
					t.Fatalf("charger %d pol %d: tasks not ascending", i, pol)
				}
			}
			lo, hi := p.PolicyWindow(i, pol)
			if lo != wantLo || hi != wantHi {
				t.Fatalf("charger %d pol %d: window [%d,%d) want [%d,%d)", i, pol, lo, hi, wantLo, wantHi)
			}
		}
	}
	// The far-away charger must still have a (single, idle) policy whose
	// compiled list is empty, and its window must short-circuit every slot.
	far := len(p.Gamma()) - 1
	for pol := range p.Gamma()[far] {
		if len(p.CompiledCovers(far, pol)) != 0 {
			t.Fatalf("far charger policy %d has compiled entries", pol)
		}
		es := NewEnergyState(p)
		for k := 0; k < p.K; k++ {
			if g := es.Marginal(far, k, pol); g != 0 {
				t.Fatalf("empty policy yields gain %v", g)
			}
		}
	}
}

// Property: on instances with zero-weight tasks, fast-saturating tasks and
// empty cover lists, the flat kernel and the generic interface-dispatch
// fallback agree to the last bit on every operation of a random walk, and
// the saturation bitmap matches the energies at every step.
func TestFlatKernelMatchesGenericQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := kernelProneInstance(rng, 3, 12)
		p, err := NewProblem(in)
		if err != nil || !p.FlatKernel() {
			return false
		}
		flat, gen := NewEnergyState(p), NewEnergyState(p)
		for step := 0; step < 120; step++ {
			i := rng.Intn(len(p.Gamma()))
			pol := rng.Intn(len(p.Gamma()[i]))
			k := rng.Intn(p.K)
			var a, b float64
			if rng.Intn(2) == 0 {
				a = flat.Marginal(i, k, pol)
				p.SetFlatKernel(false)
				b = gen.Marginal(i, k, pol)
			} else {
				a = flat.Apply(i, k, pol)
				p.SetFlatKernel(false)
				b = gen.Apply(i, k, pol)
			}
			p.SetFlatKernel(true)
			if a != b || flat.Total() != gen.Total() {
				return false
			}
			for j := range in.Tasks {
				if flat.Energy(j) != gen.Energy(j) {
					return false
				}
			}
			if !saturationInvariantHolds(flat) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// saturationInvariantHolds checks the flat kernel's saturation invariant
// on a state: satur[j] ⟺ energy[j] ≥ E_j.
func saturationInvariantHolds(es *EnergyState) bool {
	for j, req := range es.p.kern.req {
		if es.satur[j] != (es.energy[j] >= req) {
			return false
		}
	}
	return true
}

// Regression for the pruning fast path: as tasks saturate over a greedy
// run, the policy chosen by the batched flat scan must match the generic
// reference selection in every partition — under PreferStay, where exact
// zero-gain ties (the saturated regime) decide the outcome.
func TestSaturationPruningPreservesArgmaxUnderPreferStay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := kernelProneInstance(rng, 3, 12)
	for j := range in.Tasks {
		in.Tasks[j].Energy = 1 + rng.Float64()*30 // everything saturates
	}
	p := mustProblem(t, in)

	nStates := 4
	flatStates := make([]*EnergyState, nStates)
	genStates := make([]*EnergyState, nStates)
	for s := range flatStates {
		flatStates[s] = NewEnergyState(p)
		genStates[s] = NewEnergyState(p)
	}
	affected := []int{0, 1, 2, 3}
	maxPol := 0
	for _, g := range p.Gamma() {
		if len(g) > maxPol {
			maxPol = len(g)
		}
	}
	gains := make([]float64, maxPol)
	acc := make([]float64, nStates)
	prev := make([]int, len(p.Gamma()))
	for i := range prev {
		prev[i] = -1
	}
	anySaturated := false
	for k := 0; k < p.K; k++ {
		for i := range p.Gamma() {
			nPol := len(p.Gamma()[i])
			gainsBatchFlat(p, flatStates, affected, i, k, nPol, gains, acc)
			flatPick := argmaxPolicy(gains[:nPol], prev[i], true)
			p.SetFlatKernel(false)
			genPick := selectPolicy(p, genStates, affected, i, k, prev[i], true, gains)
			p.SetFlatKernel(true)
			if flatPick != genPick {
				t.Fatalf("slot %d charger %d: flat picks %d, generic picks %d", k, i, flatPick, genPick)
			}
			applyBatchFlat(p, flatStates, affected, i, k, flatPick, acc)
			p.SetFlatKernel(false)
			for _, s := range affected {
				genStates[s].Apply(i, k, genPick)
			}
			p.SetFlatKernel(true)
			prev[i] = flatPick
		}
	}
	for _, st := range flatStates {
		for _, sat := range st.satur {
			anySaturated = anySaturated || sat
		}
	}
	if !anySaturated {
		t.Fatal("run never saturated a task; regression exercises nothing")
	}
}

// The marginal inner loops must not allocate: per-call flat scans always,
// and the batched scans whenever no new saturation crossing occurs.
func TestMarginalPathsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := mustProblem(t, kernelProneInstance(rng, 4, 24))
	es := NewEnergyState(p)
	// Saturate what will saturate, so the scans skip saturated tasks.
	for k := 0; k < p.K; k++ {
		for i := range p.Gamma() {
			es.Apply(i, k, 0)
		}
	}
	states := []*EnergyState{es}
	affected := []int{0}
	gains := make([]float64, 8)
	acc := make([]float64, 1)
	checks := map[string]func(){
		"Marginal":       func() { es.Marginal(0, 1, 0) },
		"gainsBatchFlat": func() { gainsBatchFlat(p, states, affected, 0, 1, len(p.Gamma()[0]), gains, acc) },
		"applyBatchFlat": func() { applyBatchFlat(p, states, affected, 0, 1, 0, acc) },
	}
	for name, fn := range checks {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per run", name, n)
		}
	}
}

// allocBudgetC4 caps the allocations of a warm TabularGreedy run with
// Colors = 4, PreferStay and Workers = 1 on a sec. 7.1 instance
// (workload.Default, seed 3). It sits 9% above the 110 measured once the
// saturation bitmap became the kernel's only saturation record; with
// copy-on-write scan lists per sample state the run took 8 164.
const allocBudgetC4 = 120

// A warm C = 4 run draws its color plan and its result and takes its
// sample states from the problem's pool; the flat kernel's saturation
// bookkeeping allocates nothing per crossing. The count is exact with
// Workers = 1 and a stopped GC, which cannot empty the pool mid-run.
func TestTabularGreedyC4AllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("C = 4 runs on a sec. 7.1 instance; alloc counts need a non-race build")
	}
	p := mustProblem(t, workload.Default().Generate(rand.New(rand.NewSource(3))))
	opt := Options{Colors: 4, PreferStay: true, Workers: 1}
	TabularGreedy(p, opt)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(3, func() { TabularGreedy(p, opt) })
	t.Logf("warm C=4 TabularGreedy on workload.Default (seed 3): %.0f allocs (budget %d)", allocs, allocBudgetC4)
	if allocs > allocBudgetC4 {
		t.Fatalf("%.0f allocs, budget %d", allocs, allocBudgetC4)
	}
}

// WeightedValue and WeightedDelta must match the interface expressions for
// every branch of the inlined utility, with the flat kernel on and off.
func TestWeightedValueAndDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := mustProblem(t, kernelProneInstance(rng, 3, 10))
	u := p.In.U()
	for _, on := range []bool{true, false} {
		p.SetFlatKernel(on)
		for j := range p.In.Tasks {
			tk := p.In.Tasks[j]
			for _, e := range []float64{0, tk.Energy * 0.3, tk.Energy, tk.Energy * 2} {
				wantV := tk.Weight * u.Of(e, tk.Energy)
				if got := p.WeightedValue(j, e); got != wantV {
					t.Fatalf("flat=%v WeightedValue(%d, %v) = %v, want %v", on, j, e, got, wantV)
				}
				for _, de := range []float64{0, tk.Energy * 0.5, tk.Energy * 3} {
					want := tk.Weight * (u.Of(e+de, tk.Energy) - u.Of(e, tk.Energy))
					if got := p.WeightedDelta(j, e, de); got != want {
						t.Fatalf("flat=%v WeightedDelta(%d, %v, %v) = %v, want %v", on, j, e, de, got, want)
					}
				}
			}
		}
	}
	p.SetFlatKernel(true)
}

// AcquireState must hand back zeroed states, even when recycled after
// heavy use.
func TestStatePooling(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := mustProblem(t, kernelProneInstance(rng, 3, 12))
	es := p.AcquireState()
	for k := 0; k < p.K; k++ {
		for i := range p.Gamma() {
			es.Apply(i, k, rng.Intn(len(p.Gamma()[i])))
		}
	}

	p.ReleaseState(es)
	re := p.AcquireState()
	if re.Total() != 0 {
		t.Fatalf("recycled state has total %v", re.Total())
	}
	for j := range p.In.Tasks {
		if re.Energy(j) != 0 {
			t.Fatalf("recycled state has energy[%d] = %v", j, re.Energy(j))
		}
	}
	if g := re.Marginal(0, 0, 0); g != NewEnergyState(p).Marginal(0, 0, 0) {
		t.Fatal("recycled state computes different marginals than a fresh one")
	}
	// A foreign state must not enter this problem's pool.
	other := mustProblem(t, kernelProneInstance(rng, 2, 6))
	p.ReleaseState(NewEnergyState(other))
}

// Restore must rewind the saturation bits too: a task saturated by an
// apply and then restored below its requirement has to reappear in every
// scan, with marginals matching a never-saturated state bit for bit.
func TestRestoreUnsaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := kernelProneInstance(rng, 3, 12)
	for j := range in.Tasks {
		in.Tasks[j].Energy = 1 + rng.Float64()*10
	}
	p := mustProblem(t, in)
	es := NewEnergyState(p)
	ids := make([]int, len(p.In.Tasks))
	vals := make([]float64, len(p.In.Tasks))
	for j := range ids {
		ids[j] = j
	}
	for step := 0; step < 60; step++ {
		i := rng.Intn(len(p.Gamma()))
		pol := rng.Intn(len(p.Gamma()[i]))
		k := rng.Intn(p.K)
		for j := range vals {
			vals[j] = es.Energy(j)
		}
		total := es.Total()
		es.Apply(i, k, pol)
		if rng.Intn(2) == 0 {
			es.Restore(ids, vals, total)
			if !saturationInvariantHolds(es) {
				t.Fatalf("step %d: invariant broken after Restore", step)
			}
		}
	}
	// Full rewind to empty: every marginal must equal a fresh state's.
	for j := range vals {
		vals[j] = 0
	}
	es.Restore(ids, vals, 0)
	fresh := NewEnergyState(p)
	for i := range p.Gamma() {
		for pol := range p.Gamma()[i] {
			for k := 0; k < p.K; k += 3 {
				if a, b := es.Marginal(i, k, pol), fresh.Marginal(i, k, pol); a != b {
					t.Fatalf("restored state diverges at (%d,%d,%d): %v != %v", i, k, pol, a, b)
				}
			}
		}
	}
}

// KernelStats must never visit more entries than it was offered, and in a
// saturating run it must see pruning and skip evaluations.
func TestKernelStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	in := kernelProneInstance(rng, 3, 12)
	for j := range in.Tasks {
		in.Tasks[j].Energy = 1 + rng.Float64()*10
	}
	p := mustProblem(t, in)
	res := TabularGreedy(p, Options{Colors: 2, PreferStay: true, Workers: 1, KernelStats: true})
	ks := res.Kernel
	if ks.Calls == 0 || ks.Offered == 0 {
		t.Fatalf("no kernel work counted: %+v", ks)
	}
	if ks.Visited > ks.Offered {
		t.Fatalf("counters inconsistent: %+v", ks)
	}
	if ks.Pruned == 0 {
		t.Fatalf("saturating run pruned nothing: %+v", ks)
	}
	if ks.Visited == ks.Offered {
		t.Fatalf("saturating run skipped no evaluations: %+v", ks)
	}
}

// The component pool is the one parallel layer: a sharded run schedules
// components concurrently, each counting into its own sample states, and
// aggregates per-component counters in canonical component order. Its
// kernel stats must therefore equal the Workers=1 sharded run's at any
// pool size, with the schedule bit-identical throughout.
func TestKernelStatsParallelParity(t *testing.T) {
	p := shardProblem(t, 48, 4, 8, 24)
	if p.SchedulableComponents() < 2 {
		t.Fatalf("only %d schedulable components; the pool would run nothing concurrently", p.SchedulableComponents())
	}
	for _, colors := range []int{1, 3} {
		base := Options{Colors: colors, PreferStay: true, KernelStats: true, Shard: ShardOn}
		seq := base
		seq.Workers = 1
		ref := TabularGreedy(p, seq)
		if ref.Kernel.Calls == 0 {
			t.Fatalf("C=%d: sequential run counted nothing: %+v", colors, ref.Kernel)
		}
		for _, workers := range []int{2, 4, 7} {
			opt := base
			opt.Workers = workers
			got := TabularGreedy(p, opt)
			if got.Kernel != ref.Kernel {
				t.Errorf("C=%d workers=%d: stats %+v, want %+v", colors, workers, got.Kernel, ref.Kernel)
			}
			if err := compareSchedules(ref.Schedule, got.Schedule); err != nil {
				t.Errorf("C=%d workers=%d: schedule diverges: %v", colors, workers, err)
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func compareSchedules(a, b Schedule) error {
	if len(a.Policy) != len(b.Policy) {
		return fmt.Errorf("charger count %d != %d", len(b.Policy), len(a.Policy))
	}
	for i := range a.Policy {
		for k := range a.Policy[i] {
			if a.Policy[i][k] != b.Policy[i][k] {
				return fmt.Errorf("cell (%d,%d): %d != %d", i, k, b.Policy[i][k], a.Policy[i][k])
			}
		}
	}
	return nil
}

// The worker pool is gated to sharded runs: Workers sizes the component
// pool and nothing else, so a monolithic run — one sequential sweep —
// must allocate exactly the same at Workers=8 as at Workers=1. The case
// is a C = 8 run on a sec. 7.1 instance, where Samples × |Γ_i| is large
// enough that a per-step pool would start. GC is off while measuring so
// the problem's state pool cannot be emptied mid-run.
func TestWorkerPoolGating(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("C = 8 runs on a sec. 7.1 instance; alloc counts need a non-race build")
	}
	p, err := NewProblem(workload.Default().Generate(rand.New(rand.NewSource(71))))
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(2, func() {
			TabularGreedy(p, Options{Colors: 8, PreferStay: true, Workers: workers, Shard: ShardOff})
		})
	}
	if seq, wide := allocs(1), allocs(8); wide != seq {
		t.Fatalf("monolithic run allocates %v times at Workers=8, %v at Workers=1", wide, seq)
	}
}
