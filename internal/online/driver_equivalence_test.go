package online

import (
	"errors"
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
	return &concurrentDriver{neighbors, opt}, nil
}

func (d *concurrentDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
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

func (d *concurrentDriver) Reset(neighbors [][]int, opt netsim.Options) error {
	d.neighbors, d.opt = neighbors, opt
	return nil
}

func (*concurrentDriver) Close() error { return nil }

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

// driverCount is a Factory over the in-memory engine that counts the
// drivers it builds, their Resets and their Closes. failAt > 0 makes the
// driver's Run fail in the failAt-th negotiation it serves; failClose
// makes its Close fail.
type driverCount struct {
	builds, resets, closes, failAt int
	failClose                      bool
}

var errInjected = errors.New("injected driver failure")

func (c *driverCount) factory(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
	c.builds++
	d, err := netsim.MemFactory(neighbors, opt)
	return &countedDriver{Driver: d, c: c}, err
}

type countedDriver struct {
	netsim.Driver
	c *driverCount
}

func (d *countedDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	if d.c.builds+d.c.resets == d.c.failAt {
		return netsim.Stats{}, errInjected
	}
	return d.Driver.Run(nodes)
}

func (d *countedDriver) Reset(neighbors [][]int, opt netsim.Options) error {
	d.c.resets++
	return d.Driver.Reset(neighbors, opt)
}

func (d *countedDriver) Close() error {
	d.c.closes++
	if d.c.failClose {
		return errInjected
	}
	return d.Driver.Close()
}

// Run builds at most one driver, Resets it for every later negotiation
// and closes it exactly once, whether the run succeeds or its driver
// fails, and reports a failed Close; a run with nothing to negotiate
// builds none. The reused driver
// runs exactly what concurrentDriver, with fresh round buffers for every
// session, runs.
func TestRunBuildsOneDriverAndClosesItOnce(t *testing.T) {
	p := mustProblem(t, onlineWorkload(111))
	want := mustRun(t, p, Options{Seed: 7, Driver: concurrentFactory})

	var c driverCount
	got, err := Run(p, Options{Seed: 7, Driver: c.factory})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.builds != 1 || c.closes != 1 || c.resets < 1 {
		t.Errorf("success: %d builds, %d resets, %d closes; want 1, at least 1, 1", c.builds, c.resets, c.closes)
	}
	if got.Stats.Net != want.Stats.Net || got.Outcome.Utility != want.Outcome.Utility {
		t.Errorf("reused driver: %+v utility %v; want %+v utility %v",
			got.Stats.Net, got.Outcome.Utility, want.Stats.Net, want.Outcome.Utility)
	}

	c = driverCount{failAt: 2}
	if _, err := Run(p, Options{Seed: 7, Driver: c.factory}); !errors.Is(err, errInjected) {
		t.Errorf("failing driver: err = %v, want the driver's error", err)
	}
	if c.builds != 1 || c.resets != 1 || c.closes != 1 {
		t.Errorf("failing driver: %d builds, %d resets, %d closes; want 1 each", c.builds, c.resets, c.closes)
	}

	c = driverCount{failClose: true}
	if _, err := Run(p, Options{Seed: 7, Driver: c.factory}); !errors.Is(err, errInjected) || c.closes != 1 {
		t.Errorf("failing Close: err = %v after %d closes, want the driver's error after 1", err, c.closes)
	}

	in := singleTaskInstance()
	in.Tasks = nil
	c = driverCount{}
	if _, err := Run(mustProblem(t, in), Options{Seed: 7, Driver: c.factory}); err != nil {
		t.Fatalf("run without tasks: %v", err)
	}
	if c.builds != 0 || c.closes != 0 {
		t.Errorf("run without negotiation: %d builds, %d closes; want none", c.builds, c.closes)
	}
}
