package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
)

func TestTabularGreedyEmptyProblem(t *testing.T) {
	in := oneTaskInstance(480, 0, 2)
	in.Tasks = nil
	p := mustProblem(t, in)
	res := TabularGreedy(p, DefaultOptions(1))
	if res.RUtility != 0 {
		t.Errorf("utility on empty task set = %v", res.RUtility)
	}
}

func TestTabularGreedyFillsAllPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, colors := range []int{1, 4} {
		in := randomFieldInstance(rng, 5, 20, 8, 40)
		p := mustProblem(t, in)
		res := TabularGreedy(p, Options{Colors: colors, PreferStay: true})
		for i, row := range res.Schedule.Policy {
			if len(row) != p.K {
				t.Fatalf("charger %d schedule has %d slots, want %d", i, len(row), p.K)
			}
			for k, pol := range row {
				if pol < 0 || pol >= len(p.Gamma[i]) {
					t.Fatalf("C=%d: invalid policy %d at (%d,%d)", colors, pol, i, k)
				}
			}
		}
		if got := Evaluate(p, res.Schedule); !almostEq(got, res.RUtility) {
			t.Fatalf("C=%d: RUtility %v != Evaluate %v", colors, res.RUtility, got)
		}
		if res.RUtility < 0 || res.RUtility > in.TotalWeight()+1e-9 {
			t.Fatalf("C=%d: utility %v outside [0, %v]", colors, res.RUtility, in.TotalWeight())
		}
	}
}

func TestTabularGreedyDeterministicForC1(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	in := randomFieldInstance(rng, 5, 20, 8, 40)
	p := mustProblem(t, in)
	a := TabularGreedy(p, DefaultOptions(1))
	b := TabularGreedy(p, DefaultOptions(1))
	for i := range a.Schedule.Policy {
		for k := range a.Schedule.Policy[i] {
			if a.Schedule.Policy[i][k] != b.Schedule.Policy[i][k] {
				t.Fatalf("C=1 nondeterministic at (%d,%d)", i, k)
			}
		}
	}
}

// The locally greedy algorithm guarantees f(greedy) ≥ ½·f(X) for every
// feasible X (it is ½-approximate against OPT). Check against random
// feasible schedules.
func TestTabularGreedyHalfApproxAgainstRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		in := randomFieldInstance(rng, 4, 12, 6, 30)
		p := mustProblem(t, in)
		res := TabularGreedy(p, DefaultOptions(1))
		for x := 0; x < 20; x++ {
			s := NewSchedule(len(in.Chargers), p.K)
			for i := range s.Policy {
				for k := range s.Policy[i] {
					s.Policy[i][k] = rng.Intn(len(p.Gamma[i]))
				}
			}
			if u := Evaluate(p, s); res.RUtility < u/2-1e-9 {
				t.Fatalf("trial %d: greedy %v < ½·%v", trial, res.RUtility, u)
			}
		}
	}
}

// PreferStay must keep the previous policy on exact marginal ties instead
// of jumping back to the lowest index.
func TestTabularGreedyPreferStay(t *testing.T) {
	// Charger at origin. Task 0 (policy 0, azimuth 0°) saturates within
	// one slot; task 1 (policy 1, azimuth 180°) needs exactly two slots.
	// Greedy picks pol0@k0, pol1@k1, pol1@k2; from k3 on all marginals are
	// zero: PreferStay keeps pol1, without it the charger flips to pol0.
	in := &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{
			{ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi, Release: 0, End: 5, Energy: 240, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: -10, Y: 0}, Phi: 0, Release: 0, End: 5, Energy: 480, Weight: 0.5},
		},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
	p := mustProblem(t, in)
	if len(p.Gamma[0]) != 2 {
		t.Fatalf("want 2 policies, got %v", p.Gamma[0])
	}
	// Identify which policy covers task 0.
	pol0 := 0
	if p.Gamma[0][0].Covers[0] != 0 {
		pol0 = 1
	}
	pol1 := 1 - pol0

	stay := TabularGreedy(p, Options{Colors: 1, PreferStay: true})
	want := []int{pol0, pol1, pol1, pol1, pol1}
	for k, w := range want {
		if got := stay.Schedule.Policy[0][k]; got != w {
			t.Errorf("PreferStay slot %d = %d, want %d", k, got, w)
		}
	}
	noStay := TabularGreedy(p, Options{Colors: 1, PreferStay: false})
	if got := noStay.Schedule.Policy[0][3]; got != pol0 {
		t.Errorf("without PreferStay slot 3 = %d, want lowest index %d", got, pol0)
	}
	// Utilities identical either way: both saturate both tasks.
	if !almostEq(stay.RUtility, 1) || !almostEq(noStay.RUtility, 1) {
		t.Errorf("utilities = %v, %v, want 1", stay.RUtility, noStay.RUtility)
	}
}

// More colors should not hurt much; on average they help (Figs. 7/15).
func TestTabularGreedyColorsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	var sum1, sum4 float64
	for trial := 0; trial < 10; trial++ {
		in := randomFieldInstance(rng, 5, 24, 8, 40)
		p := mustProblem(t, in)
		u1 := TabularGreedy(p, Options{Colors: 1, PreferStay: true}).RUtility
		u4 := TabularGreedy(p, Options{Colors: 4, PreferStay: true,
			Rng: rand.New(rand.NewSource(int64(trial)))}).RUtility
		sum1 += u1
		sum4 += u4
		if u4 < 0.8*u1 {
			t.Errorf("trial %d: C=4 utility %v collapsed vs C=1 %v", trial, u4, u1)
		}
	}
	if sum4 < 0.95*sum1 {
		t.Errorf("C=4 aggregate %v much worse than C=1 %v", sum4, sum1)
	}
}

// argmaxPolicy is the single reduction defining the selection's tie
// semantics for the per-state and batched scans. The table pins
// the rule: maximum gain wins; on exact equality prev wins under
// preferStay no matter where prev sits in the scan order (the subtlety the
// old selectPolicy structure made easy to break); otherwise lowest index.
func TestArgmaxPolicyTieSemantics(t *testing.T) {
	cases := []struct {
		name       string
		gains      []float64
		prev       int
		preferStay bool
		want       int
	}{
		{"single policy", []float64{0}, -1, true, 0},
		{"strict max wins", []float64{1, 3, 2}, 0, true, 1},
		{"tie goes to lowest index without prev", []float64{2, 2, 1}, -1, true, 0},
		{"prev wins tie when scanned later", []float64{2, 1, 2}, 2, true, 2},
		{"prev wins tie when scanned first", []float64{2, 2}, 0, true, 0},
		{"prev wins tie in the middle", []float64{5, 5, 5}, 1, true, 1},
		{"prev loses when strictly beaten", []float64{2, 3}, 0, true, 1},
		{"prev ties runner-up only", []float64{1, 2, 1}, 2, true, 1},
		{"preferStay off ignores prev", []float64{2, 1, 2}, 2, false, 0},
		{"all-zero saturation keeps prev", []float64{0, 0, 0, 0}, 3, true, 3},
		{"all-zero saturation without prev", []float64{0, 0, 0}, -1, true, 0},
		{"prev out of range is ignored", []float64{1, 1}, 7, true, 0},
		{"no previous slot", []float64{4, 4}, -1, false, 0},
	}
	for _, c := range cases {
		if got := argmaxPolicy(c.gains, c.prev, c.preferStay); got != c.want {
			t.Errorf("%s: argmaxPolicy(%v, prev=%d, stay=%v) = %d, want %d",
				c.name, c.gains, c.prev, c.preferStay, got, c.want)
		}
	}
}

// The full selection must agree with argmaxPolicy's semantics end-to-end:
// for C = 1 the schedule is exactly the sequence of reference selections,
// so replaying selectPolicy slot by slot must reproduce every cell, ties
// included.
func TestSelectPolicyTieRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	in := randomFieldInstance(rng, 3, 10, 6, 30)
	p := mustProblem(t, in)
	maxPol := 0
	for _, g := range p.Gamma {
		if len(g) > maxPol {
			maxPol = len(g)
		}
	}
	res := TabularGreedy(p, Options{Colors: 1, PreferStay: true})
	es := NewEnergyState(p)
	gains := make([]float64, maxPol)
	for k := 0; k < p.K; k++ {
		for i := range p.Gamma {
			prev := -1
			if k > 0 {
				prev = res.Schedule.Policy[i][k-1]
			}
			want := selectPolicy(p, []*EnergyState{es}, []int{0}, i, k, prev, true, gains)
			if got := res.Schedule.Policy[i][k]; got != want {
				t.Fatalf("charger %d slot %d chose %d, reference selection %d", i, k, got, want)
			}
			es.Apply(i, k, want)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Colors != 1 || o.Samples != 1 || o.Rng == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
	o = Options{Colors: 4}.normalize()
	if o.Samples != 32 {
		t.Errorf("Samples default = %d, want 32", o.Samples)
	}
	o = Options{Colors: 4, Samples: 10}.normalize()
	if o.Samples != 10 {
		t.Errorf("explicit Samples overridden: %d", o.Samples)
	}
	o = Options{Colors: 1000}.normalize()
	if o.Colors != 255 {
		t.Errorf("Colors not clamped: %d", o.Colors)
	}
	if o := (Options{}).normalize(); o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers default = %d, want GOMAXPROCS %d", o.Workers, runtime.GOMAXPROCS(0))
	}
	if o := (Options{Workers: 3}).normalize(); o.Workers != 3 {
		t.Errorf("explicit Workers overridden: %d", o.Workers)
	}
}
