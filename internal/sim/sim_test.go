package sim

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// oneTask builds a single charger/task pair: 4 W received → 240 J per
// 60 s slot, ρ = 1/12 (5 s of a slot lost per switch → 220 J).
func oneTask(energy float64, release, end int, rho float64) *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{{
			ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi,
			Release: release, End: end, Energy: energy, Weight: 1,
		}},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: rho, Tau: 0,
		},
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

func TestExecuteFirstSlotSwitch(t *testing.T) {
	// θ_i(0) = Φ: the very first orientation costs a switch.
	p := mustProblem(t, oneTask(480, 0, 2, 1.0/12))
	s := core.NewSchedule(1, p.K)
	s.Policy[0][0] = 0
	s.Policy[0][1] = 0
	out := Execute(p, s)
	wantE := 240*(1-1.0/12) + 240 // 220 + 240
	if !almostEq(out.Energy[0], wantE) {
		t.Errorf("energy = %v, want %v", out.Energy[0], wantE)
	}
	if out.Switches != 1 {
		t.Errorf("switches = %d, want 1", out.Switches)
	}
	if !almostEq(out.Utility, wantE/480) {
		t.Errorf("utility = %v, want %v", out.Utility, wantE/480)
	}
}

func TestExecuteZeroRhoMatchesRelaxed(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 2, 0))
	s := core.NewSchedule(1, p.K)
	s.Policy[0][0] = 0
	s.Policy[0][1] = 0
	out := Execute(p, s)
	if !almostEq(out.Utility, core.Evaluate(p, s)) {
		t.Errorf("ρ=0 utility %v != relaxed %v", out.Utility, core.Evaluate(p, s))
	}
}

func TestExecuteUnassignedKeepsRadiating(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 2, 1.0/12))
	s := core.NewSchedule(1, p.K)
	s.Policy[0][0] = 0 // slot 1 left unassigned: charger keeps orientation
	out := Execute(p, s)
	wantE := 240*(1-1.0/12) + 240
	if !almostEq(out.Energy[0], wantE) {
		t.Errorf("energy = %v, want %v", out.Energy[0], wantE)
	}
	if out.Switches != 1 {
		t.Errorf("switches = %d, want 1", out.Switches)
	}
}

func TestExecuteNeverAssignedRadiatesNothing(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 2, 1.0/12))
	out := Execute(p, core.NewSchedule(1, p.K))
	if out.Utility != 0 || out.Energy[0] != 0 || out.Switches != 0 {
		t.Errorf("unassigned run harvested something: %+v", out)
	}
}

// Two opposite tasks force the charger to flip orientation every slot;
// every slot pays the switching penalty.
func TestExecuteFlipFlopPaysEverySlot(t *testing.T) {
	rho := 0.25
	in := oneTask(1e9, 0, 4, rho)
	in.Tasks = append(in.Tasks, model.Task{
		ID: 1, Pos: geom.Point{X: -10, Y: 0}, Phi: 0,
		Release: 0, End: 4, Energy: 1e9, Weight: 1,
	})
	in.Tasks[0].Weight = 1
	p := mustProblem(t, in)
	if len(p.Gamma()[0]) != 2 {
		t.Fatalf("want two policies, got %v", p.Gamma()[0])
	}
	s := core.NewSchedule(1, p.K)
	for k := 0; k < 4; k++ {
		s.Policy[0][k] = k % 2
	}
	out := Execute(p, s)
	if out.Switches != 4 {
		t.Errorf("switches = %d, want 4", out.Switches)
	}
	// Each task gets two slots, each at (1−ρ) energy.
	for j := 0; j < 2; j++ {
		if !almostEq(out.Energy[j], 2*240*(1-rho)) {
			t.Errorf("task %d energy = %v, want %v", j, out.Energy[j], 2*240*(1-rho))
		}
	}
}

// Under the proportional-switching extension a flip-flopping charger pays
// the full ρ per U-turn (orientations 180° apart) but the first
// orientation from Φ also costs the full ρ; losses never exceed the fixed
// model's.
func TestExecuteProportionalSwitching(t *testing.T) {
	rho := 0.25
	in := oneTask(1e9, 0, 4, rho)
	in.Tasks = append(in.Tasks, model.Task{
		ID: 1, Pos: geom.Point{X: -10, Y: 0}, Phi: 0,
		Release: 0, End: 4, Energy: 1e9, Weight: 1,
	})
	in.Params.ProportionalSwitching = true
	p := mustProblem(t, in)
	s := core.NewSchedule(1, p.K)
	for k := 0; k < 4; k++ {
		s.Policy[0][k] = k % 2
	}
	out := Execute(p, s)
	if out.Switches != 4 {
		t.Fatalf("switches = %d, want 4", out.Switches)
	}
	// All four rotations are 180° (or from Φ): identical to fixed model.
	for j := 0; j < 2; j++ {
		if !almostEq(out.Energy[j], 2*240*(1-rho)) {
			t.Errorf("task %d energy = %v, want %v", j, out.Energy[j], 2*240*(1-rho))
		}
	}
	// A small nudge instead: second task only 60° away → later switches
	// cost ρ/3 each.
	in2 := oneTask(1e9, 0, 4, rho)
	in2.Tasks = append(in2.Tasks, model.Task{
		ID: 1, Pos: geom.Point{X: 10 * math.Cos(geom.Deg(60)), Y: 10 * math.Sin(geom.Deg(60))},
		Phi: geom.Deg(240), Release: 0, End: 4, Energy: 1e9, Weight: 1,
	})
	in2.Params.ProportionalSwitching = true
	p2 := mustProblem(t, in2)
	if len(p2.Gamma()[0]) < 2 {
		t.Skip("tasks merged into one dominant set")
	}
	s2 := core.NewSchedule(1, p2.K)
	for k := 0; k < 4; k++ {
		s2.Policy[0][k] = k % 2
	}
	out2 := Execute(p2, s2)
	// Total loss: first switch ρ (from Φ) + 3 switches at Δθ/π·ρ each,
	// where Δθ is the angle between the two policy orientations.
	dTheta := geom.AngDist(p2.Gamma()[0][0].Orientation, p2.Gamma()[0][1].Orientation)
	wantLoss := rho + 3*rho*dTheta/math.Pi
	gotLoss := (4*480 - out2.Energy[0] - out2.Energy[1]) / 240
	if !almostEq(gotLoss, wantLoss) {
		t.Errorf("proportional loss = %v slots, want %v", gotLoss, wantLoss)
	}
}

func TestExecuteIgnoresInactiveSlots(t *testing.T) {
	p := mustProblem(t, oneTask(480, 2, 4, 0))
	s := core.NewSchedule(1, p.K)
	for k := 0; k < p.K; k++ {
		s.Policy[0][k] = 0
	}
	out := Execute(p, s)
	if !almostEq(out.Energy[0], 480) { // only slots 2,3 count
		t.Errorf("energy = %v, want 480", out.Energy[0])
	}
}

// Theorem 5.1's worst-case accounting: physical utility of a fully
// assigned schedule is at least (1−ρ)·RUtility.
func TestExecuteLowerBoundAgainstRelaxed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng)
		p := mustProblem(t, in)
		res := core.TabularGreedy(p, core.DefaultOptions(1))
		out := Execute(p, res.Schedule)
		if out.Utility < (1-in.Params.Rho)*res.RUtility-1e-9 {
			t.Fatalf("trial %d: utility %v < (1−ρ)·%v", trial, out.Utility, res.RUtility)
		}
		if out.Utility > res.RUtility+1e-9 {
			// Relaxed counts every assigned slot in full; physical can
			// only lose energy to switching, never gain, when every slot
			// is assigned.
			t.Fatalf("trial %d: physical %v exceeds relaxed %v", trial, out.Utility, res.RUtility)
		}
	}
}

func randomInstance(rng *rand.Rand) *model.Instance {
	in := &model.Instance{
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 15,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(120),
			SlotSeconds: 60, Rho: rng.Float64() * 0.5, Tau: 0,
		},
	}
	n, m := 3+rng.Intn(3), 8+rng.Intn(8)
	for i := 0; i < n; i++ {
		in.Chargers = append(in.Chargers, model.Charger{
			ID: i, Pos: geom.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30},
		})
	}
	for j := 0; j < m; j++ {
		rel := rng.Intn(4)
		in.Tasks = append(in.Tasks, model.Task{
			ID:  j,
			Pos: geom.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30},
			Phi: rng.Float64() * geom.TwoPi, Release: rel, End: rel + 2 + rng.Intn(6),
			Energy: 200 + rng.Float64()*1500, Weight: 1.0 / float64(m),
		})
	}
	return in
}
