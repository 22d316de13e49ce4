package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haste/internal/model"
)

// testing/quick property: for a random instance, random independent sets
// A ⊆ B and a random fresh element e, the objective satisfies
// 0 ≤ Δf(B, e) ≤ Δf(A, e) (monotone + submodular, Lemma 4.2) under every
// concave utility model shipped with the library.
func TestObjectivePropertiesQuick(t *testing.T) {
	utilities := []model.Utility{model.LinearBounded{}, model.LogUtility{}, model.ExpSaturating{}}
	prop := func(seed int64, uIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomFieldInstance(rng, 3, 8, 4, 25)
		in.Utility = utilities[int(uIdx)%len(utilities)]
		p, err := NewProblem(in)
		if err != nil {
			return false
		}
		type elem struct{ i, k, pol int }
		used := map[[2]int]bool{}
		var b []elem
		for len(b) < 5 {
			i, k := rng.Intn(3), rng.Intn(p.K)
			if used[[2]int{i, k}] {
				continue
			}
			used[[2]int{i, k}] = true
			b = append(b, elem{i, k, rng.Intn(len(p.Gamma()[i]))})
		}
		var e elem
		for {
			i, k := rng.Intn(3), rng.Intn(p.K)
			if !used[[2]int{i, k}] {
				e = elem{i, k, rng.Intn(len(p.Gamma()[i]))}
				break
			}
		}
		nA := rng.Intn(len(b))
		esA, esB := NewEnergyState(p), NewEnergyState(p)
		for idx, x := range b {
			if idx < nA {
				esA.Apply(x.i, x.k, x.pol)
			}
			esB.Apply(x.i, x.k, x.pol)
		}
		mA := esA.Marginal(e.i, e.k, e.pol)
		mB := esB.Marginal(e.i, e.k, e.pol)
		return mB >= -1e-12 && mA >= mB-1e-9
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// testing/quick property: Restore exactly undoes Apply regardless of the
// application sequence.
func TestRestoreUndoesApplyQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomFieldInstance(rng, 3, 8, 4, 25)
		p, err := NewProblem(in)
		if err != nil {
			return false
		}
		es := NewEnergyState(p)
		// Warm the state with a few applications.
		for step := 0; step < 5; step++ {
			i := rng.Intn(3)
			es.Apply(i, rng.Intn(p.K), rng.Intn(len(p.Gamma()[i])))
		}
		i := rng.Intn(3)
		k, pol := rng.Intn(p.K), rng.Intn(len(p.Gamma()[i]))
		before := cloneState(es)
		ids := append([]int(nil), p.Gamma()[i][pol].Covers...)
		vals := make([]float64, len(ids))
		for idx, j := range ids {
			vals[idx] = es.Energy(j)
		}
		total := es.Total()
		es.Apply(i, k, pol)
		es.Restore(ids, vals, total)
		if es.Total() != before.Total() {
			return false
		}
		for j := range in.Tasks {
			if es.Energy(j) != before.Energy(j) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(100))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// The whole offline pipeline must work under the general concave
// utilities, not just the paper's linear-bounded one.
func TestTabularGreedyWithGeneralUtilities(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	base := randomFieldInstance(rng, 5, 16, 8, 35)
	for _, u := range []model.Utility{model.LogUtility{}, model.ExpSaturating{}} {
		in := *base
		in.Utility = u
		p := mustProblem(t, &in)
		res := TabularGreedy(p, DefaultOptions(1))
		if res.RUtility <= 0 || res.RUtility > in.TotalWeight()+1e-9 {
			t.Errorf("%s: utility %v out of range", u.Name(), res.RUtility)
		}
		// ½-approximation against random feasible schedules holds for any
		// monotone submodular objective.
		for x := 0; x < 10; x++ {
			s := NewSchedule(len(in.Chargers), p.K)
			for i := range s.Policy {
				for k := range s.Policy[i] {
					s.Policy[i][k] = rng.Intn(len(p.Gamma()[i]))
				}
			}
			if other := Evaluate(p, s); res.RUtility < other/2-1e-9 {
				t.Errorf("%s: greedy %v below ½·%v", u.Name(), res.RUtility, other)
			}
		}
	}
}
