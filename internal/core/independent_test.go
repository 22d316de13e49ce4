package core

import (
	"math/rand"
	"testing"
)

// Every scheduler's output must be an independent set of the problem's
// partition matroid (Lemma 4.1): at most one policy of Γ_i per cell
// (i, k), which the one-index-per-cell Schedule holds by construction.
// A full schedule is a basis: every cell holds a policy index in
// [0, |Γ_i|), so no cell is left unassigned (-1).
func TestSchedulersProduceIndependentSets(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 10; trial++ {
		in := randomFieldInstance(rng, 5, 15, 6, 30)
		p := mustProblem(t, in)
		gamma := p.Gamma()

		for name, s := range map[string]Schedule{
			"tabular C1": TabularGreedy(p, DefaultOptions(1)).Schedule,
			"tabular C3": TabularGreedy(p, Options{Colors: 3, PreferStay: true}).Schedule,
		} {
			if len(s.Policy) != len(gamma) {
				t.Fatalf("trial %d: %s has %d charger rows, want %d", trial, name, len(s.Policy), len(gamma))
			}
			for i, row := range s.Policy {
				if len(row) != p.K {
					t.Fatalf("trial %d: %s charger %d has %d slots, want %d", trial, name, i, len(row), p.K)
				}
				for k, pol := range row {
					if pol < 0 || pol >= len(gamma[i]) {
						t.Fatalf("trial %d: %s cell (%d, %d) = %d, want a policy in [0, %d)",
							trial, name, i, k, pol, len(gamma[i]))
					}
				}
			}
		}
	}
}
