// Package baseline implements the two comparison algorithms of §7.2:
//
//   - GreedyUtility: each charger greedily picks, slot by slot, the
//     orientation (dominant task set) that maximizes its own local charging
//     utility, ignoring what neighboring chargers deliver.
//   - GreedyCover: each charger picks the orientation covering the maximum
//     number of active charging tasks.
//
// Both are fully local — each charger needs no coordination — so they are
// trivially implementable in a distributed way, which is why the paper
// uses them as baselines in both the offline and the online scenario. The
// online variants additionally honor the rescheduling delay τ: a task
// released at slot t can influence a charger's orientation no earlier than
// slot t+τ (the time the charger needs to learn about the task and
// recompute).
package baseline

import (
	"haste/internal/core"
)

// GreedyUtility builds a schedule where every charger maximizes its own
// delivered utility, counting only the energy it delivers itself. With
// online = true tasks become visible τ slots after release.
func GreedyUtility(p *core.Problem) core.Schedule {
	return greedyUtility(p, false)
}

// GreedyUtilityOnline is GreedyUtility under the online visibility rule.
func GreedyUtilityOnline(p *core.Problem) core.Schedule {
	return greedyUtility(p, true)
}

// GreedyCover builds a schedule where every charger covers as many active
// tasks as possible each slot.
func GreedyCover(p *core.Problem) core.Schedule {
	return greedyCover(p, false)
}

// GreedyCoverOnline is GreedyCover under the online visibility rule.
func GreedyCoverOnline(p *core.Problem) core.Schedule {
	return greedyCover(p, true)
}

// visibleAt reports whether the task may influence decisions at slot k.
func visibleAt(p *core.Problem, taskID, k int, online bool) bool {
	t := &p.In.Tasks[taskID]
	if !t.ActiveAt(k) {
		return false
	}
	if online && k < t.Release+p.In.Params.Tau {
		return false
	}
	return true
}

func greedyUtility(p *core.Problem, online bool) core.Schedule {
	in := p.In
	n := len(in.Chargers)
	s := core.NewSchedule(n, p.K)
	u := in.U()
	for i := 0; i < n; i++ {
		// own[j]: energy this charger alone has delivered to task j — the
		// only information a coordination-free charger has.
		own := make([]float64, len(in.Tasks))
		prev := -1
		for k := 0; k < p.K; k++ {
			best, bestGain := 0, -1.0
			for pol := range p.Gamma()[i] {
				// Compiled cover lists carry (task, Δe) pairs with Δe > 0;
				// zero-energy covers contribute exactly 0 gain, so skipping
				// them leaves every gain bitwise unchanged.
				var gain float64
				for _, e := range p.CompiledCovers(i, pol) {
					j := int(e.Task)
					if !visibleAt(p, j, k, online) {
						continue
					}
					t := &in.Tasks[j]
					gain += t.Weight * (u.Of(own[j]+e.De, t.Energy) - u.Of(own[j], t.Energy))
				}
				if gain > bestGain {
					best, bestGain = pol, gain
				} else if gain == bestGain && pol == prev {
					best = pol
				}
			}
			s.Policy[i][k] = best
			for _, e := range p.CompiledCovers(i, best) {
				if visibleAt(p, int(e.Task), k, online) {
					own[e.Task] += e.De
				}
			}
			prev = best
		}
	}
	return s
}

func greedyCover(p *core.Problem, online bool) core.Schedule {
	n := len(p.In.Chargers)
	s := core.NewSchedule(n, p.K)
	for i := 0; i < n; i++ {
		prev := -1
		for k := 0; k < p.K; k++ {
			best, bestCount := 0, -1
			for pol, g := range p.Gamma()[i] {
				count := 0
				for _, j := range g.Covers {
					if visibleAt(p, j, k, online) {
						count++
					}
				}
				if count > bestCount {
					best, bestCount = pol, count
				} else if count == bestCount && pol == prev {
					best = pol
				}
			}
			s.Policy[i][k] = best
			prev = best
		}
	}
	return s
}
