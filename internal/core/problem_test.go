package core

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// oneTaskInstance: a charger at the origin and one task 10 m along +x
// facing back, P_r = 10000/(10+40)² = 4 W, 240 J per 60 s slot.
func oneTaskInstance(energy float64, release, end int) *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{{
			ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi,
			Release: release, End: end, Energy: energy, Weight: 1,
		}},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
}

// randomFieldInstance builds a random HASTE instance on a side×side field.
func randomFieldInstance(rng *rand.Rand, n, m, maxDur int, side float64) *model.Instance {
	in := &model.Instance{
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: side / 2,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(120),
			SlotSeconds: 60, Rho: 1.0 / 12, Tau: 0,
		},
	}
	for i := 0; i < n; i++ {
		in.Chargers = append(in.Chargers, model.Charger{
			ID: i, Pos: geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
		})
	}
	for j := 0; j < m; j++ {
		rel := rng.Intn(3)
		dur := 2 + rng.Intn(maxDur)
		in.Tasks = append(in.Tasks, model.Task{
			ID:  j,
			Pos: geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			Phi: rng.Float64() * geom.TwoPi, Release: rel, End: rel + dur,
			Energy: 100 + rng.Float64()*2000, Weight: 1.0 / float64(m),
		})
	}
	return in
}

func mustProblem(t *testing.T, in *model.Instance) *Problem {
	t.Helper()
	p, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func TestNewProblemValidates(t *testing.T) {
	in := oneTaskInstance(480, 0, 2)
	in.Tasks[0].Energy = -1
	if _, err := NewProblem(in); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestProblemPrecomputation(t *testing.T) {
	p := mustProblem(t, oneTaskInstance(480, 0, 2))
	if p.K != 2 {
		t.Errorf("K = %d, want 2", p.K)
	}
	if got := p.SlotEnergy(0, 0); !almostEq(got, 240) {
		t.Errorf("SlotEnergy = %v, want 240", got)
	}
	if len(p.Gamma()[0]) != 1 || p.Gamma()[0][0].Idle {
		t.Fatalf("Gamma = %v", p.Gamma()[0])
	}
}

func TestEvaluateManual(t *testing.T) {
	// Task needs 480 J over 2 slots; one covered slot delivers 240 J.
	p := mustProblem(t, oneTaskInstance(480, 0, 2))
	s := NewSchedule(1, p.K)
	if got := Evaluate(p, s); got != 0 {
		t.Errorf("empty schedule utility = %v", got)
	}
	s.Policy[0][0] = 0
	if got := Evaluate(p, s); !almostEq(got, 0.5) {
		t.Errorf("one-slot utility = %v, want 0.5", got)
	}
	s.Policy[0][1] = 0
	if got := Evaluate(p, s); !almostEq(got, 1) {
		t.Errorf("two-slot utility = %v, want 1", got)
	}
}

func TestEvaluateInactiveSlotEarnsNothing(t *testing.T) {
	p := mustProblem(t, oneTaskInstance(480, 1, 3)) // active slots 1,2
	s := NewSchedule(1, p.K)
	s.Policy[0][0] = 0 // before release
	if got := Evaluate(p, s); got != 0 {
		t.Errorf("pre-release slot earned %v", got)
	}
	s.Policy[0][1] = 0
	if got := Evaluate(p, s); !almostEq(got, 0.5) {
		t.Errorf("utility = %v, want 0.5", got)
	}
}

func TestMarginalMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		in := randomFieldInstance(rng, 4, 12, 6, 30)
		p := mustProblem(t, in)
		es := NewEnergyState(p)
		for step := 0; step < 30; step++ {
			i := rng.Intn(len(in.Chargers))
			k := rng.Intn(p.K)
			pol := rng.Intn(len(p.Gamma()[i]))
			m := es.Marginal(i, k, pol)
			before := es.Total()
			gain := es.Apply(i, k, pol)
			if !almostEq(m, gain) {
				t.Fatalf("Marginal %v != Apply gain %v", m, gain)
			}
			if !almostEq(es.Total()-before, gain) {
				t.Fatalf("Total drift: %v vs %v", es.Total()-before, gain)
			}
		}
	}
}

func TestMarginalScaled(t *testing.T) {
	p := mustProblem(t, oneTaskInstance(480, 0, 2))
	es := NewEnergyState(p)
	full := es.Marginal(0, 0, 0)
	half := es.MarginalScaled(0, 0, 0, 0.5)
	if !almostEq(full, 0.5) || !almostEq(half, 0.25) {
		t.Errorf("marginals full=%v half=%v", full, half)
	}
	es.ApplyScaled(0, 0, 0, 0.5)
	if !almostEq(es.Energy(0), 120) {
		t.Errorf("scaled energy = %v, want 120", es.Energy(0))
	}
	if zero := es.MarginalScaled(0, 1, 0, 0); zero != 0 {
		t.Errorf("zero-frac marginal = %v", zero)
	}
}

func TestEnergyStateCloneAndReset(t *testing.T) {
	p := mustProblem(t, oneTaskInstance(480, 0, 2))
	es := NewEnergyState(p)
	es.Apply(0, 0, 0)
	cl := es.Clone()
	es.Apply(0, 1, 0)
	if almostEq(cl.Total(), es.Total()) {
		t.Error("clone aliases original")
	}
	es.Reset()
	if es.Total() != 0 || es.Energy(0) != 0 {
		t.Error("Reset incomplete")
	}
	if !almostEq(cl.Total(), 0.5) {
		t.Errorf("clone total = %v, want 0.5", cl.Total())
	}
}

// Lemma 4.2: f is normalized, monotone and submodular. We verify the
// diminishing-marginals property on random instances: for element sets
// A ⊆ B not touching partition (i,k), Marginal_A(e) ≥ Marginal_B(e) ≥ 0.
func TestObjectiveMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		in := randomFieldInstance(rng, 4, 10, 5, 25)
		p := mustProblem(t, in)
		n := len(in.Chargers)

		// Random independent set B as a sequence of distinct partitions.
		type elem struct{ i, k, pol int }
		used := map[[2]int]bool{}
		var b []elem
		for len(b) < 6 {
			i, k := rng.Intn(n), rng.Intn(p.K)
			if used[[2]int{i, k}] {
				continue
			}
			used[[2]int{i, k}] = true
			b = append(b, elem{i, k, rng.Intn(len(p.Gamma()[i]))})
		}
		nA := rng.Intn(len(b))
		// e from a fresh partition.
		var e elem
		for {
			i, k := rng.Intn(n), rng.Intn(p.K)
			if !used[[2]int{i, k}] {
				e = elem{i, k, rng.Intn(len(p.Gamma()[i]))}
				break
			}
		}
		esA, esB := NewEnergyState(p), NewEnergyState(p)
		for idx, x := range b {
			if idx < nA {
				esA.Apply(x.i, x.k, x.pol)
			}
			esB.Apply(x.i, x.k, x.pol)
		}
		mA := esA.Marginal(e.i, e.k, e.pol)
		mB := esB.Marginal(e.i, e.k, e.pol)
		if mB < -1e-12 {
			t.Fatalf("trial %d: negative marginal %v (monotonicity)", trial, mB)
		}
		if mA < mB-1e-9 {
			t.Fatalf("trial %d: submodularity violated: Δf(A)=%v < Δf(B)=%v", trial, mA, mB)
		}
	}
}

func TestScheduleHelpers(t *testing.T) {
	s := NewSchedule(2, 3)
	if s.Slots() != 3 {
		t.Errorf("Slots = %d", s.Slots())
	}
	for i := range s.Policy {
		for k := range s.Policy[i] {
			if s.Policy[i][k] != -1 {
				t.Fatal("NewSchedule not -1 initialized")
			}
		}
	}
	s.Policy[0][0] = 7
	c := s.Clone()
	c.Policy[0][0] = 9
	if s.Policy[0][0] != 7 {
		t.Error("Clone aliases original")
	}
	var empty Schedule
	if empty.Slots() != 0 {
		t.Error("empty schedule Slots != 0")
	}
}
