package baseline

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/sim"
)

func params(rho float64, tau int) model.Params {
	return model.Params{
		Alpha: 10000, Beta: 40, Radius: 20,
		ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(120),
		SlotSeconds: 60, Rho: rho, Tau: tau,
	}
}

func mustProblem(t *testing.T, in *model.Instance) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// One charger, a lone near task (high utility marginal) on one side and a
// pair of far tasks on the other: GreedyCover must pick the pair,
// GreedyUtility the lone near task (its marginal utility is larger).
func coverVsUtilityInstance() *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{
			// Near task: 4 W → 240 J/slot against only 240 J required.
			{ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi, Release: 0, End: 4, Energy: 240, Weight: 1.0 / 3},
			// Two far tasks at azimuth 180°, 0.92 W each, huge requirement.
			{ID: 1, Pos: geom.Point{X: -19, Y: 1}, Phi: geom.Deg(-3), Release: 0, End: 4, Energy: 1e6, Weight: 1.0 / 3},
			{ID: 2, Pos: geom.Point{X: -19, Y: -1}, Phi: geom.Deg(3), Release: 0, End: 4, Energy: 1e6, Weight: 1.0 / 3},
		},
		Params: params(0, 0),
	}
}

func TestGreedyCoverPrefersMoreTasks(t *testing.T) {
	p := mustProblem(t, coverVsUtilityInstance())
	s := GreedyCover(p)
	pol := s.Policy[0][0]
	if len(p.Gamma()[0][pol].Covers) != 2 {
		t.Fatalf("GreedyCover picked %v, want the two-task set", p.Gamma()[0][pol])
	}
}

func TestGreedyUtilityPrefersHigherUtility(t *testing.T) {
	p := mustProblem(t, coverVsUtilityInstance())
	s := GreedyUtility(p)
	pol := s.Policy[0][0]
	covers := p.Gamma()[0][pol].Covers
	if len(covers) != 1 || covers[0] != 0 {
		t.Fatalf("GreedyUtility picked %v, want the near task", p.Gamma()[0][pol])
	}
	// Once the near task saturates (after slot 0), the charger moves on.
	pol1 := s.Policy[0][1]
	if len(p.Gamma()[0][pol1].Covers) != 2 {
		t.Fatalf("GreedyUtility slot 1 picked %v, want the far pair", p.Gamma()[0][pol1])
	}
}

func TestOnlineVisibilityDelaysReaction(t *testing.T) {
	in := coverVsUtilityInstance()
	in.Params.Tau = 2
	// Make windows long enough for τ=2 (duration ≥ 2τ).
	p := mustProblem(t, in)
	soff := GreedyUtility(p)
	son := GreedyUtilityOnline(p)
	// During slots 0 and 1 no task is visible online: the charger must
	// pick policy 0 by default both slots, regardless of tasks.
	for k := 0; k < 2; k++ {
		if son.Policy[0][k] != 0 {
			t.Errorf("online slot %d policy = %d, want default 0", k, son.Policy[0][k])
		}
	}
	// From slot 2 on the online schedule matches the offline one's
	// steady-state choice pattern shifted by τ: slot 2 behaves like
	// offline slot 0 (near task not yet charged).
	if p.Gamma()[0][son.Policy[0][2]].Covers[0] != p.Gamma()[0][soff.Policy[0][0]].Covers[0] {
		t.Errorf("online slot 2 should target what offline targeted first")
	}
}

func TestBaselinesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng)
		p := mustProblem(t, in)
		for name, s := range map[string]core.Schedule{
			"GreedyUtility":       GreedyUtility(p),
			"GreedyCover":         GreedyCover(p),
			"GreedyUtilityOnline": GreedyUtilityOnline(p),
			"GreedyCoverOnline":   GreedyCoverOnline(p),
		} {
			for i, row := range s.Policy {
				if len(row) != p.K {
					t.Fatalf("%s: charger %d has %d slots", name, i, len(row))
				}
				for k, pol := range row {
					if pol < 0 || pol >= len(p.Gamma()[i]) {
						t.Fatalf("%s: invalid policy %d at (%d,%d)", name, pol, i, k)
					}
				}
			}
		}
	}
}

// The paper's headline comparison: HASTE (locally greedy, C=1) beats both
// baselines on aggregate, because baselines ignore cross-charger
// coordination. Statistical check over random instances.
func TestHasteBeatsBaselinesOnAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	var uh, ug, uc float64
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng)
		p := mustProblem(t, in)
		res := core.TabularGreedy(p, core.DefaultOptions(1))
		uh += sim.Execute(p, res.Schedule).Utility
		ug += sim.Execute(p, GreedyUtility(p)).Utility
		uc += sim.Execute(p, GreedyCover(p)).Utility
	}
	if uh < ug-1e-9 {
		t.Errorf("HASTE aggregate %v below GreedyUtility %v", uh, ug)
	}
	if uh < uc-1e-9 {
		t.Errorf("HASTE aggregate %v below GreedyCover %v", uh, uc)
	}
}

func randomInstance(rng *rand.Rand) *model.Instance {
	in := &model.Instance{Params: params(1.0/12, 1)}
	n, m := 4+rng.Intn(4), 12+rng.Intn(12)
	for i := 0; i < n; i++ {
		in.Chargers = append(in.Chargers, model.Charger{
			ID: i, Pos: geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40},
		})
	}
	for j := 0; j < m; j++ {
		rel := rng.Intn(4)
		in.Tasks = append(in.Tasks, model.Task{
			ID:  j,
			Pos: geom.Point{X: rng.Float64() * 40, Y: rng.Float64() * 40},
			Phi: rng.Float64() * geom.TwoPi, Release: rel, End: rel + 2 + rng.Intn(8),
			Energy: 300 + rng.Float64()*2000, Weight: 1.0 / float64(m),
		})
	}
	return in
}
