package core

import (
	"math/rand"
	"testing"
)

// Every scheduler's output must be an independent set of the problem's
// partition matroid (Lemma 4.1), and a full schedule must be a basis.
func TestSchedulersProduceIndependentSets(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 10; trial++ {
		in := randomFieldInstance(rng, 5, 15, 6, 30)
		p := mustProblem(t, in)
		m := p.Matroid()

		for name, s := range map[string]Schedule{
			"tabular C1": TabularGreedy(p, DefaultOptions(1)).Schedule,
			"tabular C3": TabularGreedy(p, Options{Colors: 3, PreferStay: true}).Schedule,
		} {
			elems := s.Elements()
			if !m.Independent(elems) {
				t.Fatalf("trial %d: %s schedule not independent", trial, name)
			}
			// Full schedules are bases: |X| = rank.
			if len(elems) != m.Rank() {
				t.Fatalf("trial %d: %s has %d elements, rank is %d",
					trial, name, len(elems), m.Rank())
			}
		}
	}
}

func TestElementsSkipsUnassigned(t *testing.T) {
	s := NewSchedule(2, 3)
	s.Policy[1][2] = 4
	elems := s.Elements()
	if len(elems) != 1 || elems[0].Charger != 1 || elems[0].Slot != 2 || elems[0].Policy != 4 {
		t.Fatalf("Elements = %v", elems)
	}
}

func TestMatroidShape(t *testing.T) {
	in := oneTaskInstance(480, 0, 2)
	p := mustProblem(t, in)
	m := p.Matroid()
	if m.NumChargers != 1 || m.NumSlots != 2 || len(m.PolicyCounts) != 1 {
		t.Fatalf("matroid shape: %+v", m)
	}
	if m.PolicyCounts[0] != len(p.Gamma()[0]) {
		t.Fatalf("policy counts: %+v vs %d", m.PolicyCounts, len(p.Gamma()[0]))
	}
}
