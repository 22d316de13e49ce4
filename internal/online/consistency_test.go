package online

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/workload"
)

// White-box distributed-consistency tests: after a full negotiation, every
// agent's local energy view must agree with its neighbors' on shared tasks
// and with an independent global recomputation of all committed tuples —
// the property that makes the local marginal ΔF_i equal to the global one
// (the key step in the proof of Theorem 6.1).

func negotiatedAgents(t *testing.T, seed int64, colors int) (*core.Problem, negotiation) {
	t.Helper()
	cfg := workload.SmallScale()
	cfg.NumChargers, cfg.NumTasks = 6, 14
	cfg.FieldSide = 14
	cfg.ReleaseMax = 0 // single negotiation covering everything
	cfg.Params.Tau = 0
	cfg.Params.ReceiveAngle = geom.Deg(150)
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	known := make([]int, len(in.Tasks))
	for j := range known {
		known[j] = j
	}
	orient := make([][]float64, len(in.Chargers))
	for i := range orient {
		orient[i] = make([]float64, p.K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}
	opt := Options{Colors: colors, Seed: seed}.normalize()
	neg, err := negotiate(p, opt, known, orient, 0, 0, p.K)
	if err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	return p, neg
}

func TestNeighborEnergyViewsAgree(t *testing.T) {
	for _, colors := range []int{1, 3} {
		p, neg := negotiatedAgents(t, 17, colors)
		neighbors := knownNeighbors(p, allIDs(p))
		for i, a := range neg.agents {
			for _, nb := range neighbors[i] {
				b := neg.agents[nb]
				for s := 0; s < a.samples && s < b.samples; s++ {
					for j := range p.In.Tasks {
						// Shared task: both can charge it.
						if p.SlotEnergy(i, j) == 0 || p.SlotEnergy(nb, j) == 0 {
							continue
						}
						if math.Abs(a.energy[s][j]-b.energy[s][j]) > 1e-9 {
							t.Fatalf("C=%d: agents %d and %d disagree on task %d sample %d: %v vs %v",
								colors, i, nb, j, s, a.energy[s][j], b.energy[s][j])
						}
					}
				}
			}
		}
	}
}

// Each agent's energy view must equal the global recomputation of every
// committed (charger, slot, color) tuple, restricted to the tasks the
// agent can observe (its own chargeable tasks).
func TestAgentViewsMatchGlobalRecomputation(t *testing.T) {
	for _, colors := range []int{1, 2} {
		p, neg := negotiatedAgents(t, 23, colors)
		opt := Options{Colors: colors, Seed: 17}.normalize()
		_ = opt
		samples := neg.agents[0].samples

		// Global truth: accumulate every agent's committed tuples.
		truth := make([][]float64, samples)
		for s := range truth {
			truth[s] = make([]float64, len(p.In.Tasks))
		}
		for i, a := range neg.agents {
			for idx, pol := range a.q {
				if pol < 0 {
					continue
				}
				k, c := a.lo+idx/a.colors, idx%a.colors
				for s := 0; s < samples; s++ {
					if colorAt(a.seed, s, i, k, a.colors) != c {
						continue
					}
					for _, j := range a.policies[pol].Covers {
						if p.In.Tasks[j].ActiveAt(k) {
							truth[s][j] += p.SlotEnergy(i, j)
						}
					}
				}
			}
		}
		for i, a := range neg.agents {
			for s := 0; s < samples; s++ {
				for j := range p.In.Tasks {
					if p.SlotEnergy(i, j) == 0 {
						continue // agent cannot observe this task
					}
					if math.Abs(a.energy[s][j]-truth[s][j]) > 1e-9 {
						t.Fatalf("C=%d: agent %d task %d sample %d: local %v != global %v",
							colors, i, j, s, a.energy[s][j], truth[s][j])
					}
				}
			}
		}
	}
}

// The matroid constraint at the distributed level: each agent commits at
// most one policy per (slot, color).
func TestAgentsRespectPartitionMatroid(t *testing.T) {
	p, neg := negotiatedAgents(t, 31, 3)
	for i, a := range neg.agents {
		if a.lo < 0 || a.hi > p.K {
			t.Fatalf("agent %d negotiated out-of-horizon window [%d, %d)", i, a.lo, a.hi)
		}
		if a.q != nil && len(a.q) != (a.hi-a.lo)*a.colors {
			t.Fatalf("agent %d has %d table entries for %d slots of %d colors", i, len(a.q), a.hi-a.lo, a.colors)
		}
		for _, pol := range a.q {
			if pol >= len(a.policies) {
				t.Fatalf("agent %d references unknown policy %d", i, pol)
			}
		}
	}
}

func allIDs(p *core.Problem) []int {
	ids := make([]int, len(p.In.Tasks))
	for j := range ids {
		ids[j] = j
	}
	return ids
}
