package opt

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/sim"
	"haste/internal/workload"
)

func mustProblem(t *testing.T, in *model.Instance) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

func tinyInstance(rng *rand.Rand, n, m, maxK int) *model.Instance {
	in := &model.Instance{
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 12,
			ChargeAngle: geom.Deg(70), ReceiveAngle: geom.Deg(160),
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
	for i := 0; i < n; i++ {
		in.Chargers = append(in.Chargers, model.Charger{
			ID: i, Pos: geom.Point{X: rng.Float64() * 15, Y: rng.Float64() * 15},
		})
	}
	for j := 0; j < m; j++ {
		rel := rng.Intn(2)
		in.Tasks = append(in.Tasks, model.Task{
			ID:  j,
			Pos: geom.Point{X: rng.Float64() * 15, Y: rng.Float64() * 15},
			Phi: rng.Float64() * geom.TwoPi, Release: rel,
			End:    rel + 1 + rng.Intn(maxK-1),
			Energy: 100 + rng.Float64()*800, Weight: 1.0 / float64(m),
		})
	}
	return in
}

func TestSolveMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		in := tinyInstance(rng, 2, 5, 3)
		p := mustProblem(t, in)
		// Keep the exhaustive product small.
		combos := 1.0
		for _, g := range p.Gamma() {
			combos *= math.Pow(float64(len(g)), float64(p.K))
		}
		if combos > 2e5 {
			continue
		}
		ex := SolveExhaustive(p)
		bb, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		if !bb.Optimal {
			t.Fatalf("trial %d: not proven optimal", trial)
		}
		if math.Abs(ex.Utility-bb.Utility) > 1e-9 {
			t.Fatalf("trial %d: exhaustive %v != B&B %v", trial, ex.Utility, bb.Utility)
		}
		if got := core.Evaluate(p, bb.Schedule); math.Abs(got-bb.Utility) > 1e-9 {
			t.Fatalf("trial %d: schedule evaluates to %v, claimed %v", trial, got, bb.Utility)
		}
	}
}

func TestSolveNeverBelowGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		in := tinyInstance(rng, 3, 6, 3)
		p := mustProblem(t, in)
		greedy := core.TabularGreedy(p, core.DefaultOptions(1))
		bb, err := Solve(p, Options{MaxNodes: 5_000_000})
		if err != nil {
			t.Skipf("trial %d too large: %v", trial, err)
		}
		if bb.Utility < greedy.RUtility-1e-9 {
			t.Fatalf("trial %d: OPT %v < greedy %v", trial, bb.Utility, greedy.RUtility)
		}
	}
}

// Theorem 5.1's guarantee measured against the exact optimum: the
// simulated (switching-aware) greedy utility must be at least
// (1−ρ)(1−1/e)·OPT_R ≥ (1−ρ)(1−1/e)·OPT.
func TestGreedyMeetsApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	bound := (1 - 1.0/12) * (1 - 1/math.E)
	for trial := 0; trial < 8; trial++ {
		cfg := workload.SmallScale()
		cfg.NumChargers, cfg.NumTasks = 3, 6
		cfg.ReleaseMax = 1
		cfg.DurationMax = 3
		in := cfg.Generate(rng)
		in.Params.Tau = 0
		p := mustProblem(t, in)
		res := core.TabularGreedy(p, core.DefaultOptions(1))
		physical := sim.Execute(p, res.Schedule).Utility
		bb, err := Solve(p, Options{MaxNodes: 20_000_000})
		if err != nil {
			t.Skipf("trial %d too large: %v", trial, err)
		}
		if bb.Utility == 0 {
			continue
		}
		if ratio := physical / bb.Utility; ratio < bound-1e-9 {
			t.Fatalf("trial %d: ratio %v below theoretical bound %v", trial, ratio, bound)
		}
	}
}

func TestSolveNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	in := tinyInstance(rng, 4, 10, 4)
	p := mustProblem(t, in)
	sol, err := Solve(p, Options{MaxNodes: 10})
	if err == nil {
		// A tiny instance may legitimately finish within 10 nodes.
		if !sol.Optimal {
			t.Fatal("no error but not optimal")
		}
		return
	}
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if sol.Optimal {
		t.Fatal("budget exhausted but marked optimal")
	}
	// Even truncated, the warm start guarantees at least greedy quality.
	greedy := core.TabularGreedy(p, core.DefaultOptions(1))
	if sol.Utility < greedy.RUtility-1e-9 {
		t.Fatalf("truncated solution %v below greedy %v", sol.Utility, greedy.RUtility)
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	in := tinyInstance(rand.New(rand.NewSource(95)), 1, 1, 2)
	in.Tasks = nil
	p := mustProblem(t, in)
	sol, err := Solve(p, Options{})
	if err != nil || !sol.Optimal || sol.Utility != 0 {
		t.Fatalf("empty solve: %+v err=%v", sol, err)
	}
}
