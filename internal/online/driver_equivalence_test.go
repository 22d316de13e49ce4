package online

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/workload"
)

// concurrentDriver is an in-memory netsim.Driver whose stepping fan runs
// every up agent on its own goroutine through netsim.Rounds — the
// concurrency the socket substrate imposes, without the sockets, so the
// race detector can check that agents share no unsynchronized state.
type concurrentDriver struct {
	neighbors [][]int
	opt       netsim.Options
}

func concurrentFactory(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
	return concurrentDriver{neighbors, opt}, nil
}

func (d concurrentDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	return new(netsim.Rounds).Run(d.neighbors, d.opt, func(_ int, down []bool, inboxes [][]netsim.Message, outs []netsim.Payload) error {
		var wg sync.WaitGroup
		for i := range nodes {
			if down != nil && down[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i], _ = nodes[i].Step(inboxes[i])
			}(i)
		}
		wg.Wait()
		return nil
	})
}

func (concurrentDriver) Close() error { return nil }

// TestDriverEquivalenceSeededTopologies is the netsim driver-equivalence
// check at the full protocol level: on three seeded topologies the
// negotiation under a goroutine-per-charger fan (concurrentFactory) and
// on the sequential in-memory engine must produce identical schedules
// (orientation timelines), message counts and round counts. CI runs this
// suite under the race detector — the whole point is catching an
// unsynchronized write in the agents.
func TestDriverEquivalenceSeededTopologies(t *testing.T) {
	for _, seed := range []int64{301, 302, 303} {
		cfg := workload.SmallScale()
		cfg.NumChargers = 7
		cfg.NumTasks = 14
		cfg.FieldSide = 14
		cfg.ReleaseMax = 3
		cfg.DurationMin, cfg.DurationMax = 2, 5
		in := cfg.Generate(rand.New(rand.NewSource(seed)))
		p, err := core.NewProblem(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seq := mustRun(t, p, Options{Seed: seed})
		par := mustRun(t, p, Options{Seed: seed, Driver: concurrentFactory})

		for i := range seq.Orientations {
			for k := range seq.Orientations[i] {
				sv, pv := seq.Orientations[i][k], par.Orientations[i][k]
				if math.IsNaN(sv) != math.IsNaN(pv) || (!math.IsNaN(sv) && sv != pv) {
					t.Fatalf("seed %d: schedule diverges at charger %d slot %d: %v vs %v",
						seed, i, k, sv, pv)
				}
			}
		}
		if seq.Outcome.Utility != par.Outcome.Utility {
			t.Errorf("seed %d: utility diverges: %v vs %v", seed, seq.Outcome.Utility, par.Outcome.Utility)
		}
		if s, p := seq.Stats.TotalMessages(), par.Stats.TotalMessages(); s != p {
			t.Errorf("seed %d: message counts diverge: %d vs %d", seed, s, p)
		}
		if s, p := seq.Stats.TotalRounds(), par.Stats.TotalRounds(); s != p {
			t.Errorf("seed %d: round counts diverge: %d vs %d", seed, s, p)
		}
		if seq.Stats.Net != par.Stats.Net {
			t.Errorf("seed %d: network totals diverge: %+v vs %+v", seed, seq.Stats.Net, par.Stats.Net)
		}
	}
}
