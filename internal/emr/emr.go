// Package emr adds electromagnetic-radiation safety to HASTE scheduling —
// the extension direction of the safe-charging line of work the paper
// builds on (SCAPE and the radiation-constrained scheduling papers by the
// same group, refs. [42]–[50]): the EMR intensity at any point of the
// field must never exceed a safety threshold.
//
// The EMR model follows those papers: intensity at a point is proportional
// to the total wireless power received there, e(q) = γ·Σ_i P_r(s_i, q),
// summed over the chargers whose charging sector covers q. The continuous
// "everywhere" constraint is discretized over a grid of monitoring points,
// as in the original papers.
//
// ConstrainedGreedy is the locally greedy HASTE scheduler with the safety
// constraint enforced per slot: a charger may also stay off (radiate
// nothing), so a feasible schedule always exists. With an infinite
// threshold it reproduces the unconstrained scheduler exactly.
package emr

import (
	"math"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
)

// Field is the EMR safety specification.
type Field struct {
	Points []geom.Point // monitoring points
	Gamma  float64      // EMR per unit received power (γ)
	Limit  float64      // safety threshold R_t; +Inf disables the constraint
}

// Grid builds a uniform grid of monitoring points covering the square
// [0, side]² with the given spacing (points at both boundaries included).
func Grid(side, spacing float64) []geom.Point {
	var pts []geom.Point
	if spacing <= 0 {
		return pts
	}
	for x := 0.0; x <= side+1e-9; x += spacing {
		for y := 0.0; y <= side+1e-9; y += spacing {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	return pts
}

// intensityOf returns the EMR contribution of charger i oriented at theta
// to point q (γ times the power an omnidirectional probe at q would
// receive from it).
func (f Field) intensityOf(in *model.Instance, i int, theta float64, q geom.Point) float64 {
	c := in.Chargers[i]
	s := geom.Sector{
		Apex:        c.Pos,
		Orientation: theta,
		HalfAngle:   in.Params.ChargeAngle / 2,
		Radius:      in.Params.Radius,
	}
	if !s.Contains(q) {
		return 0
	}
	return f.Gamma * in.Params.PowerBetween(c.Pos, q)
}

// SlotIntensities returns, for one slot's orientations (NaN = off), the
// EMR intensity at every monitoring point.
func (f Field) SlotIntensities(in *model.Instance, orientations []float64) []float64 {
	out := make([]float64, len(f.Points))
	for i, theta := range orientations {
		if math.IsNaN(theta) {
			continue
		}
		for pi, q := range f.Points {
			out[pi] += f.intensityOf(in, i, theta, q)
		}
	}
	return out
}

// Audit replays a schedule and reports the worst EMR intensity observed at
// any monitoring point in any slot, plus the number of (slot, point)
// violations of the threshold. It uses the same off semantics as
// ConstrainedGreedy and ExecuteOff: a charger with no policy in a slot
// radiates nothing. (Schedules from the unconstrained schedulers always
// assign every slot, so the distinction only matters for constrained
// ones.)
func (f Field) Audit(p *core.Problem, s core.Schedule) (peak float64, violations int) {
	in, gamma := p.In, p.Gamma()
	n := len(in.Chargers)
	cur := make([]float64, n)
	for k := 0; k < s.Slots(); k++ {
		for i := 0; i < n; i++ {
			cur[i] = math.NaN()
			if k < len(s.Policy[i]) {
				if pol := s.Policy[i][k]; pol >= 0 && !gamma[i][pol].Idle {
					cur[i] = gamma[i][pol].Orientation
				}
			}
		}
		for _, e := range f.SlotIntensities(in, cur) {
			if e > peak {
				peak = e
			}
			if e > f.Limit+1e-12 {
				violations++
			}
		}
	}
	return peak, violations
}

// ConstrainedGreedy is the locally greedy offline scheduler under the EMR
// safety constraint: per slot (in slot-major, charger-minor order, the
// same order and tie-breaking as core.TabularGreedy with C = 1) each
// charger picks the feasible policy with the best marginal utility, where
// feasible means no monitoring point exceeds Limit in that slot given the
// policies already committed. A charger with no feasible policy stays off
// for the slot (schedule entry −1, radiating nothing).
//
// The returned result's RUtility is the HASTE-R objective of the schedule.
// Note the off semantics differ from the unconstrained executor: an off
// charger here is truly silent, so callers should audit and execute
// constrained schedules with ExecuteOff.
func ConstrainedGreedy(p *core.Problem, f Field) core.Result {
	in := p.In
	n := len(in.Chargers)
	sched := core.NewSchedule(n, p.K)
	es := p.AcquireState()
	defer p.ReleaseState(es)

	// contrib[i][pol][pi] would be large; compute lazily per charger with
	// a cache keyed by policy, valid across slots (orientation fixed).
	cache := make([]map[int][]float64, n)
	for i := range cache {
		cache[i] = make(map[int][]float64)
	}
	contribution := func(i, pol int) []float64 {
		if c, ok := cache[i][pol]; ok {
			return c
		}
		c := make([]float64, len(f.Points))
		if g := p.Gamma()[i][pol]; !g.Idle {
			theta := g.Orientation
			for pi, q := range f.Points {
				c[pi] = f.intensityOf(in, i, theta, q)
			}
		}
		cache[i][pol] = c
		return c
	}

	load := make([]float64, len(f.Points)) // intensity committed this slot
	for k := 0; k < p.K; k++ {
		for pi := range load {
			load[pi] = 0
		}
		for i := 0; i < n; i++ {
			best, bestGain := -1, 0.0
			prev := -1
			if k > 0 {
				prev = sched.Policy[i][k-1]
			}
			for pol := range p.Gamma()[i] {
				c := contribution(i, pol)
				feasible := true
				for pi, add := range c {
					if add > 0 && load[pi]+add > f.Limit+1e-12 {
						feasible = false
						break
					}
				}
				if !feasible {
					continue
				}
				gain := es.Marginal(i, k, pol)
				switch {
				case best < 0 || gain > bestGain:
					best, bestGain = pol, gain
				case gain == bestGain && pol == prev && best != prev:
					best = pol
				}
			}
			if best < 0 {
				continue // no feasible policy: stay off this slot
			}
			sched.Policy[i][k] = best
			es.Apply(i, k, best)
			for pi, add := range contribution(i, best) {
				load[pi] += add
			}
		}
	}
	return core.Result{Schedule: sched, RUtility: es.Total()}
}

// ExecuteOff plays a constrained schedule with off semantics: a charger
// with policy −1 radiates nothing that slot (unlike sim.Execute, where −1
// means "keep the previous orientation"). Switching delay applies when a
// charger turns back on with a different orientation than it last used.
func ExecuteOff(p *core.Problem, s core.Schedule) (utility float64, perTask []float64) {
	in, gamma := p.In, p.Gamma()
	energy := make([]float64, len(in.Tasks))
	n := len(in.Chargers)
	last := make([]float64, n) // last used orientation
	for i := range last {
		last[i] = math.NaN()
	}
	for k := 0; k < s.Slots(); k++ {
		for i := 0; i < n; i++ {
			pol := -1
			if k < len(s.Policy[i]) {
				pol = s.Policy[i][k]
			}
			if pol < 0 || gamma[i][pol].Idle {
				continue
			}
			theta := gamma[i][pol].Orientation
			frac := 1.0
			if math.IsNaN(last[i]) || theta != last[i] {
				frac = 1 - in.Params.SwitchLoss(last[i], theta)
				last[i] = theta
			}
			// Compiled cover list: zero-energy pairs dropped, slot energy
			// inline (bit-identical to the Gamma scan; see core.CompiledCovers).
			if lo, hi := p.PolicyWindow(i, pol); k < lo || k >= hi {
				continue
			}
			for _, e := range p.CompiledCovers(i, pol) {
				if in.Tasks[e.Task].ActiveAt(k) {
					energy[e.Task] += e.De * frac
				}
			}
		}
	}
	u := in.U()
	perTask = make([]float64, len(in.Tasks))
	for j, t := range in.Tasks {
		perTask[j] = u.Of(energy[j], t.Energy)
		utility += t.Weight * perTask[j]
	}
	return utility, perTask
}
