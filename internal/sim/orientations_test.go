package sim

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
)

func TestExecuteOrientationsBasic(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 2, 1.0/12))
	theta := p.Gamma()[0][0].Orientation
	orient := [][]float64{{theta, theta}}
	out := ExecuteOrientations(p, orient)
	wantE := 240*(1-1.0/12) + 240
	if !almostEq(out.Energy[0], wantE) {
		t.Errorf("energy = %v, want %v", out.Energy[0], wantE)
	}
	if out.Switches != 1 {
		t.Errorf("switches = %d, want 1", out.Switches)
	}
}

func TestExecuteOrientationsNaNKeeps(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 3, 0))
	theta := p.Gamma()[0][0].Orientation
	orient := [][]float64{{theta, math.NaN(), math.NaN()}}
	out := ExecuteOrientations(p, orient)
	if !almostEq(out.Energy[0], 720) {
		t.Errorf("energy = %v, want 720 (kept orientation)", out.Energy[0])
	}
	if out.Switches != 1 {
		t.Errorf("switches = %d", out.Switches)
	}
}

func TestExecuteOrientationsMissPointsAway(t *testing.T) {
	p := mustProblem(t, oneTask(480, 0, 2, 0))
	orient := [][]float64{{math.Pi, math.Pi}} // pointing away from the task
	out := ExecuteOrientations(p, orient)
	if out.Energy[0] != 0 {
		t.Errorf("energy = %v, want 0", out.Energy[0])
	}
	if out.Switches != 1 { // still rotated once
		t.Errorf("switches = %d, want 1", out.Switches)
	}
}

// Playing a policy schedule through ExecuteOrientations must agree with
// Execute on the same schedule, because every policy's representative
// orientation covers exactly its dominant set.
func TestExecuteOrientationsMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng)
		p := mustProblem(t, in)
		res := core.TabularGreedy(p, core.DefaultOptions(1))
		fromPolicies := Execute(p, res.Schedule)

		orient := make([][]float64, len(in.Chargers))
		for i := range orient {
			orient[i] = make([]float64, p.K)
			cur := math.NaN()
			for k := 0; k < p.K; k++ {
				if pol := res.Schedule.Policy[i][k]; pol >= 0 && !p.Gamma()[i][pol].Idle {
					cur = p.Gamma()[i][pol].Orientation
				}
				orient[i][k] = cur
			}
		}
		fromOrient := ExecuteOrientations(p, orient)
		if math.Abs(fromPolicies.Utility-fromOrient.Utility) > 1e-9 {
			t.Fatalf("trial %d: policy exec %v != orientation exec %v",
				trial, fromPolicies.Utility, fromOrient.Utility)
		}
		if fromPolicies.Switches != fromOrient.Switches {
			t.Fatalf("trial %d: switches %d != %d", trial, fromPolicies.Switches, fromOrient.Switches)
		}
	}
}
