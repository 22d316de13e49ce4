// Package sim executes schedules on the physical network model: it plays a
// core.Schedule slot by slot, charging every covered active task, and
// applies the switching delay ρ of the paper's problem formulation P1 — a
// charger whose orientation changes at the start of a slot radiates
// nothing during the first ρ fraction of that slot (θ_i = Φ while
// switching), and chargers start with no orientation (θ_i(0) = Φ).
//
// The resulting Outcome is the HASTE objective (switching-aware), as
// opposed to core.Evaluate which computes the relaxed HASTE-R objective
// used inside the schedulers. Theorem 5.1's bound
// Utility ≥ (1−ρ)·RUtility is verified against this executor by tests.
package sim

import (
	"math"

	"haste/internal/core"
)

// Outcome reports the physical result of executing a schedule.
type Outcome struct {
	Utility  float64   // overall weighted charging utility Σ_j w_j·U(e_j)
	PerTask  []float64 // charging utility per task
	Energy   []float64 // harvested energy per task, joules
	Switches int       // orientation switches performed (each costs ρ·T_s)
}

// Execute plays the schedule on the instance behind p. Unassigned slots
// (policy −1) leave the charger's orientation unchanged: it keeps
// radiating with its previous dominant set, which is exactly what the
// hardware would do. A charger that was never assigned any policy has
// orientation Φ and radiates nothing.
func Execute(p *core.Problem, s core.Schedule) Outcome {
	in := p.In
	n := len(in.Chargers)
	K := s.Slots()
	if K < p.K {
		K = p.K
	}
	energy := make([]float64, len(in.Tasks))

	switches := 0
	curPol := make([]int, n)       // effective policy per charger; -1 = Φ
	curTheta := make([]float64, n) // effective orientation; NaN = Φ
	for i := range curPol {
		curPol[i] = -1
		curTheta[i] = math.NaN()
	}
	// Assignments past a charger's component horizon deliver exactly zero
	// energy (every reachable task has ended); real hardware would never
	// execute such a rotation. Clipping them to -1 here makes the switch
	// count a function of the schedule's effective content, so monolithic
	// and sharded runs — which differ only in such padding cells — count
	// identically. Before this clip, a monolithic run at Colors > 1 could
	// hop between zero-gain policies in the padding region and report
	// spurious extra switches.
	hor := p.AssignedHorizons()
	gamma := p.Gamma()
	for k := 0; k < K; k++ {
		for i := 0; i < n; i++ {
			next := -1
			if k < len(s.Policy[i]) && k < hor[i] {
				next = s.Policy[i][k]
			}
			frac := 1.0
			if next >= 0 && !gamma[i][next].Idle {
				theta := gamma[i][next].Orientation
				if math.IsNaN(curTheta[i]) || theta != curTheta[i] {
					// The charger rotates: it radiates only during the
					// trailing part of this slot (a fixed 1−ρ in the
					// paper's model, rotation-proportional under the
					// ProportionalSwitching extension).
					switches++
					frac = 1 - in.Params.SwitchLoss(curTheta[i], theta)
					curTheta[i] = theta
				}
				curPol[i] = next
			}
			eff := curPol[i]
			if eff < 0 || gamma[i][eff].Idle {
				continue
			}
			// Iterate the flat kernel's compiled cover list: zero-energy
			// pairs are already dropped (they contribute exactly +0.0) and
			// the slot energies are stored inline, so the executor does no
			// Gamma/Tasks pointer chasing per pair.
			if lo, hi := p.PolicyWindow(i, eff); k < lo || k >= hi {
				continue
			}
			for _, e := range p.CompiledCovers(i, eff) {
				if in.Tasks[e.Task].ActiveAt(k) {
					energy[e.Task] += e.De * frac
				}
			}
		}
	}

	out := Outcome{Energy: energy, PerTask: make([]float64, len(in.Tasks)), Switches: switches}
	u := in.U()
	for j, t := range in.Tasks {
		out.PerTask[j] = u.Of(energy[j], t.Energy)
		out.Utility += t.Weight * out.PerTask[j]
	}
	return out
}
