package online

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

func negotiatedAgents(t *testing.T, seed int64, colors int) (*core.Problem, *negotiator) {
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
	g := newNegotiator(p, Options{Colors: colors, Seed: seed}.normalize())
	defer g.close()
	g.learn(allIDs(p))
	if _, err := g.negotiate(nanOrient(p), 0, 0); err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	return p, g
}

// energyOf reads sample s's view of task j, which must be in the agent's
// row.
func (a *agent) energyOf(s, j int) float64 {
	r, ok := slices.BinarySearchFunc(a.row, j, func(e core.CoverEntry, j int) int { return cmp.Compare(int(e.Task), j) })
	if !ok {
		panic("energyOf: task outside the agent's row")
	}
	return a.energy[s][r]
}

func nanOrient(p *core.Problem) [][]float64 {
	orient := make([][]float64, len(p.In.Chargers))
	for i := range orient {
		orient[i] = make([]float64, p.K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}
	return orient
}

func TestNeighborEnergyViewsAgree(t *testing.T) {
	for _, colors := range []int{1, 3} {
		p, g := negotiatedAgents(t, 17, colors)
		for i := range g.agents {
			a := &g.agents[i]
			for _, nb := range a.neighbors {
				b := &g.agents[nb]
				for s := 0; s < a.samples && s < b.samples; s++ {
					for j := range p.In.Tasks {
						// Shared task: both can charge it.
						if p.SlotEnergy(i, j) == 0 || p.SlotEnergy(nb, j) == 0 {
							continue
						}
						if ea, eb := a.energyOf(s, j), b.energyOf(s, j); math.Abs(ea-eb) > 1e-9 {
							t.Fatalf("C=%d: agents %d and %d disagree on task %d sample %d: %v vs %v",
								colors, i, nb, j, s, ea, eb)
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
		p, g := negotiatedAgents(t, 23, colors)
		samples := g.agents[0].samples

		// Global truth: accumulate every agent's committed tuples.
		truth := make([][]float64, samples)
		for s := range truth {
			truth[s] = make([]float64, len(p.In.Tasks))
		}
		for i := range g.agents {
			a := &g.agents[i]
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
		for i := range g.agents {
			a := &g.agents[i]
			for s := 0; s < samples; s++ {
				for j := range p.In.Tasks {
					if p.SlotEnergy(i, j) == 0 {
						continue // agent cannot observe this task
					}
					if e := a.energyOf(s, j); math.Abs(e-truth[s][j]) > 1e-9 {
						t.Fatalf("C=%d: agent %d task %d sample %d: local %v != global %v",
							colors, i, j, s, e, truth[s][j])
					}
				}
			}
		}
	}
}

// The matroid constraint at the distributed level: each agent commits at
// most one policy per (slot, color).
func TestAgentsRespectPartitionMatroid(t *testing.T) {
	p, g := negotiatedAgents(t, 31, 3)
	for i := range g.agents {
		a := &g.agents[i]
		if a.lo < 0 || a.hi > p.K {
			t.Fatalf("agent %d negotiated out-of-horizon window [%d, %d)", i, a.lo, a.hi)
		}
		if len(a.q) > 0 && len(a.q) != (a.hi-a.lo)*a.colors {
			t.Fatalf("agent %d has %d table entries for %d slots of %d colors", i, len(a.q), a.hi-a.lo, a.colors)
		}
		for _, pol := range a.q {
			if pol >= len(a.policies) {
				t.Fatalf("agent %d references unknown policy %d", i, pol)
			}
		}
	}
}

// An agent reset through every arrival batch of a run, negotiating in
// between, must equal a zero agent reset once with the final known set:
// the same Γ_i, per-policy cover lists and energy view, and no
// per-negotiation state left over (the commit numbers go on the wire).
// Reset learns only what changed, so this is what makes that incremental
// path safe.
func TestAgentResetMatchesFresh(t *testing.T) {
	for _, opt := range []Options{{Seed: 5}, {Seed: 6, Colors: 3}, {Seed: 7, Reliable: true, DropRate: 0.2}} {
		cfg := workload.SmallScale()
		cfg.NumChargers, cfg.NumTasks = 8, 40
		cfg.FieldSide = 16
		cfg.ReleaseMax = 12
		p := mustProblem(t, cfg.Generate(rand.New(rand.NewSource(opt.Seed))))
		opt = opt.normalize()
		g := newNegotiator(p, opt)
		defer g.close()
		orient := nanOrient(p)
		slots, arrivals := arrivalBatches(p.In)
		if len(slots) < 3 {
			t.Fatalf("seed %d: %d arrival batches, want several", opt.Seed, len(slots))
		}
		negotiations, grown := 0, 0
		for b, now := range slots {
			before := make([]int, len(g.agents))
			for i := range g.agents {
				before[i] = len(g.agents[i].candidates)
			}
			g.learn(arrivals[now])
			lockUntil := min(now+p.In.Params.Tau, p.K)
			if b < len(slots)-1 {
				if g.maxEnd > lockUntil {
					if _, err := g.negotiate(orient, now, lockUntil); err != nil {
						t.Fatal(err)
					}
					negotiations++
					for i := range g.agents {
						if n := len(g.agents[i].candidates); n > before[i] && before[i] > 0 {
							grown++
						}
					}
				}
				continue
			}
			neighbors := g.prepare(orient, lockUntil)
			for i := range g.agents {
				a := &g.agents[i]
				var fresh agent
				fresh.reset(i, p, opt, g.known, g.energy, neighbors[i], lockUntil, g.maxEnd)
				if !reflect.DeepEqual(a.candidates, fresh.candidates) ||
					!reflect.DeepEqual(a.policies, fresh.policies) ||
					!slices.Equal(a.polCovers, fresh.polCovers) || !slices.Equal(a.polOff, fresh.polOff) {
					t.Fatalf("seed %d charger %d: reset agent's Γ_i %v (covers %v) != fresh %v (covers %v)",
						opt.Seed, i, a.policies, a.polCovers, fresh.policies, fresh.polCovers)
				}
				if len(a.q) != 0 || a.updSeq != fresh.updSeq || a.retransmits != fresh.retransmits || a.nUnacked != 0 {
					t.Fatalf("seed %d charger %d: reset kept per-negotiation state: %d table entries, commit seq %d, %d retransmits, %d unacked",
						opt.Seed, i, len(a.q), a.updSeq, a.retransmits, a.nUnacked)
				}
				for s := range fresh.energy {
					if !slices.Equal(a.energy[s], fresh.energy[s]) {
						t.Fatalf("seed %d charger %d sample %d: energy view %v != fresh %v", opt.Seed, i, s, a.energy[s], fresh.energy[s])
					}
				}
			}
		}
		if negotiations < 2 || grown == 0 {
			t.Fatalf("seed %d: %d negotiations and %d known rows grown — the run exercises no incremental reset",
				opt.Seed, negotiations, grown)
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
