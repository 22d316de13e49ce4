package core

import "haste/internal/matroid"

// Matroid returns the partition matroid M = (S, I) of Lemma 4.1 for this
// problem: one partition Θ_{i,k} per charger per slot, each holding the
// charger's dominant-set policies.
func (p *Problem) Matroid() matroid.Partition {
	gamma := p.Gamma()
	counts := make([]int, len(gamma))
	for i, g := range gamma {
		counts[i] = len(g)
	}
	return matroid.Partition{
		NumChargers:  len(gamma),
		NumSlots:     p.K,
		PolicyCounts: counts,
	}
}

// Elements converts a schedule into its ground-set elements (assigned
// cells only). The result of any scheduler in this package is independent
// in the problem's matroid by construction; tests verify it.
func (s Schedule) Elements() []matroid.Element {
	var out []matroid.Element
	for i, row := range s.Policy {
		for k, pol := range row {
			if pol >= 0 {
				out = append(out, matroid.Element{Charger: i, Slot: k, Policy: pol})
			}
		}
	}
	return out
}
