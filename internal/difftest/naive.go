package difftest

import (
	"fmt"
	"math/rand"

	"haste/internal/core"
)

// NaiveState is an independent transcription of the pre-compilation
// evaluation kernel — the EnergyState loops exactly as they stood before
// the flat kernel existed, written against the public Problem API
// (Gamma covers, SlotEnergy, the Utility interface). It is the third
// implementation in the kernel agreement sweep: flat kernel, generic
// fallback and this naive scan must agree to the last bit on every
// operation, which pins both current kernels to the historical semantics
// rather than merely to each other.
type NaiveState struct {
	p      *core.Problem
	energy []float64
	total  float64
}

// NewNaiveState returns the empty naive state.
func NewNaiveState(p *core.Problem) *NaiveState {
	return &NaiveState{p: p, energy: make([]float64, len(p.In.Tasks))}
}

// Total returns Σ_j w_j·U(e_j) as accumulated by Apply calls.
func (ns *NaiveState) Total() float64 { return ns.total }

// Energy returns task j's accumulated energy.
func (ns *NaiveState) Energy(j int) float64 { return ns.energy[j] }

// Marginal is the pre-compilation EnergyState.Marginal, verbatim.
func (ns *NaiveState) Marginal(i, k, pol int) float64 {
	u := ns.p.In.U()
	var gain float64
	for _, j := range ns.p.Gamma()[i][pol].Covers {
		t := &ns.p.In.Tasks[j]
		if !t.ActiveAt(k) {
			continue
		}
		de := ns.p.SlotEnergy(i, j)
		if de == 0 {
			continue
		}
		gain += t.Weight * (u.Of(ns.energy[j]+de, t.Energy) - u.Of(ns.energy[j], t.Energy))
	}
	return gain
}

// Apply is the pre-compilation EnergyState.Apply, verbatim.
func (ns *NaiveState) Apply(i, k, pol int) float64 {
	u := ns.p.In.U()
	var gain float64
	for _, j := range ns.p.Gamma()[i][pol].Covers {
		t := &ns.p.In.Tasks[j]
		if !t.ActiveAt(k) {
			continue
		}
		de := ns.p.SlotEnergy(i, j)
		if de == 0 {
			continue
		}
		gain += t.Weight * (u.Of(ns.energy[j]+de, t.Energy) - u.Of(ns.energy[j], t.Energy))
		ns.energy[j] += de
	}
	ns.total += gain
	return gain
}

// Restore is the pre-compilation EnergyState.Restore, verbatim.
func (ns *NaiveState) Restore(ids []int, vals []float64, total float64) {
	for idx, j := range ids {
		ns.energy[j] = vals[idx]
	}
	ns.total = total
}

// kernelOps is the operation surface the agreement sweep compares. Both
// core.EnergyState and NaiveState satisfy it.
type kernelOps interface {
	Marginal(i, k, pol int) float64
	Apply(i, k, pol int) float64
	Restore(ids []int, vals []float64, total float64)
	Total() float64
	Energy(j int) float64
}

// KernelSweep drives the flat kernel, the generic interface-dispatch
// fallback and the naive pre-compilation scan through the same seeded
// random walk of kernel operations — Marginal, Apply and snapshot/Restore
// cycles (including restores that un-saturate tasks) — and returns an
// error on the first bitwise disagreement in a returned gain, a per-task
// energy, or the running total. Applies repeat on random partitions, so
// tasks cross their requirement during the walk and the flat kernel's
// saturation bitmap and utility cache are live for the later operations.
func KernelSweep(p *core.Problem, seed int64, steps int) error {
	if !p.FlatKernel() {
		return fmt.Errorf("kernel sweep: flat kernel unavailable for this instance")
	}
	rng := rand.New(rand.NewSource(seed))
	flat := core.NewEnergyState(p)
	gen := core.NewEnergyState(p)
	naive := NewNaiveState(p)

	// each runs the same operation on all three states; the generic state
	// always executes with the flat kernel switched off.
	each := func(fn func(st kernelOps) float64) (a, b, c float64) {
		a = fn(flat)
		p.SetFlatKernel(false)
		b = fn(gen)
		p.SetFlatKernel(true)
		c = fn(naive)
		return a, b, c
	}
	check := func(what string, a, b, c float64) error {
		if a != b || a != c {
			return fmt.Errorf("%s: flat=%v generic=%v naive=%v", what, a, b, c)
		}
		return nil
	}
	stateEq := func() error {
		if err := check("total", flat.Total(), gen.Total(), naive.Total()); err != nil {
			return err
		}
		for j := range p.In.Tasks {
			if err := check(fmt.Sprintf("energy[%d]", j), flat.Energy(j), gen.Energy(j), naive.Energy(j)); err != nil {
				return err
			}
		}
		return nil
	}

	gamma := p.Gamma()
	n := len(gamma)
	var snapIDs []int
	var snapVals []float64
	var snapTotal [3]float64
	haveSnap := false

	for step := 0; step < steps; step++ {
		i := rng.Intn(n)
		if len(gamma[i]) == 0 {
			continue
		}
		pol := rng.Intn(len(gamma[i]))
		k := rng.Intn(p.K + 1) // may land one past the horizon: never active
		var name string
		var err error
		switch op := rng.Intn(10); {
		case op < 5:
			name = fmt.Sprintf("Marginal(i=%d,k=%d,pol=%d)", i, k, pol)
			a, b, c := each(func(st kernelOps) float64 { return st.Marginal(i, k, pol) })
			err = check(name, a, b, c)
		case op < 9 || !haveSnap:
			if op >= 9 {
				k = rng.Intn(p.K) // bias the fallback apply into the horizon
			}
			name = fmt.Sprintf("Apply(i=%d,k=%d,pol=%d)", i, k, pol)
			a, b, c := each(func(st kernelOps) float64 { return st.Apply(i, k, pol) })
			err = check(name, a, b, c)
			if err == nil && rng.Intn(3) == 0 {
				// Snapshot the touched tasks for a later Restore; rewinding
				// past a saturation crossing exercises un-pruning.
				snapIDs = snapIDs[:0]
				snapVals = snapVals[:0]
				for _, j := range gamma[i][pol].Covers {
					snapIDs = append(snapIDs, j)
					snapVals = append(snapVals, flat.Energy(j))
				}
				snapTotal = [3]float64{flat.Total(), gen.Total(), naive.Total()}
				haveSnap = true
			}
		default:
			name = "Restore"
			totals := snapTotal
			idx := 0
			each(func(st kernelOps) float64 {
				st.Restore(snapIDs, snapVals, totals[idx])
				idx++
				return 0
			})
			haveSnap = false
		}
		if err == nil {
			err = stateEq()
		}
		if err != nil {
			return fmt.Errorf("kernel sweep seed %d step %d %s: %w", seed, step, name, err)
		}
	}
	return nil
}
