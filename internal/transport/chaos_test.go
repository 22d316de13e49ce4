// Socket-substrate chaos and performance tests. These live in the
// external test package so they can use difftest's pinned chaos workload
// (difftest imports transport, so the in-package tests cannot).
package transport_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/difftest"
	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/transport"
)

func chaosProblem(t testing.TB, seed int64) *core.Problem {
	t.Helper()
	p, err := difftest.ChaosProblem(seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runTCP(t *testing.T, p *core.Problem, opt online.Options) online.Result {
	t.Helper()
	opt.Driver = transport.Factory
	res, err := online.Run(p, opt)
	if err != nil {
		t.Fatalf("online.Run over TCP: %v", err)
	}
	return res
}

// TestReliabilityRecoversUtilityOverTCP ports the pinned chaos-recovery
// property (online package, seeds 603/614/622) to the real-socket driver:
// at 10% drop rate the no-reliability baseline loses utility on every
// pinned scenario, the reliability layer is strictly better on aggregate,
// and it recovers to at least 99% of failure-free per scenario — over
// loopback TCP, with the loss injected at the coordinator's delivery
// stage so the wire carries exactly the surviving deliveries.
func TestReliabilityRecoversUtilityOverTCP(t *testing.T) {
	seeds := []int64{603, 614, 622}
	if testing.Short() {
		seeds = seeds[:1]
	}
	var cleanSum, lossySum, relSum float64
	for _, seed := range seeds {
		p := chaosProblem(t, seed)
		clean := runTCP(t, p, online.Options{Seed: seed}).Outcome.Utility
		lossy := runTCP(t, p, online.Options{Seed: seed, DropRate: 0.1}).Outcome.Utility
		rel := runTCP(t, p, online.Options{Seed: seed, DropRate: 0.1, Reliable: true}).Outcome.Utility
		cleanSum += clean
		lossySum += lossy
		relSum += rel
		if rel < 0.99*clean {
			t.Errorf("seed=%d: reliable utility %v below 99%% of failure-free %v", seed, rel, clean)
		}
	}
	if lossySum >= cleanSum {
		t.Errorf("scenarios degenerate: baseline at 10%% drop (%v) does not degrade vs failure-free (%v)",
			lossySum, cleanSum)
	}
	if relSum <= lossySum {
		t.Errorf("reliability layer did not improve on the baseline at 10%% drop: %v vs %v", relSum, lossySum)
	}
}

// TestCancelledRunReleasesPooledStates drives the full online stack over
// sockets with a context that is cancelled mid-run: Run must fail with
// the cancellation, and the abandoned negotiation must leave the
// problem's pooled energy-state balance at zero — an abort may not strand
// checked-out core states.
func TestCancelledRunReleasesPooledStates(t *testing.T) {
	p := chaosProblem(t, 603)
	// contextFactory builds engines that abort their session when ctx is
	// cancelled.
	contextFactory := func(ctx context.Context) netsim.Factory {
		return func(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
			return transport.NewContext(ctx, neighbors, opt)
		}
	}

	// Pre-cancelled context: the very first session aborts deterministically.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := online.Run(p, online.Options{Seed: 603, Driver: contextFactory(ctx)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	if n := p.StatesInUse(); n != 0 {
		t.Errorf("pre-cancelled run stranded %d pooled states", n)
	}

	// Mid-run cancellation: a timer fires while negotiations are in flight.
	// (If the run happens to finish first the error is nil — rerun with a
	// tighter budget is not worth the flake; assert only on failure.)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	_, err = online.Run(p, online.Options{Seed: 603, Colors: 4, Driver: contextFactory(ctx2)})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation: err = %v, want context.Canceled", err)
	}
	if n := p.StatesInUse(); n != 0 {
		t.Errorf("cancelled run stranded %d pooled states", n)
	}
}

// chatter is the benchmark node: it broadcasts one bid per round until
// the round budget is exhausted, so a session executes exactly the
// requested number of rounds.
type chatter struct {
	id, rounds, stepped int
}

func (c *chatter) Step(_ []netsim.Message, out *netsim.Payload) bool {
	c.stepped++
	if c.stepped > c.rounds {
		return true
	}
	*out = netsim.Payload{HasBid: true, Slot: uint32(c.stepped), Color: uint32(c.id), Delta: 0.5}
	return false
}

// benchmarkRounds measures per-round latency of a driver: an 8-node full
// mesh runs one session of b.N rounds, so ns/op ≈ the cost of one
// barrier-synchronized round. With every node active each one chatters
// every round (8 stepped nodes, 56 deliveries). With one active node the
// other seven report done in round 0 and every delivery of node 0 is
// dropped, so no message wakes them: each later round steps node 0
// alone, the round of a mesh where one charger is still negotiating.
func benchmarkRounds(b *testing.B, factory netsim.Factory, active int) {
	const n = 8
	neighbors := make([][]int, n)
	for i := range neighbors {
		for j := 0; j < n; j++ {
			if j != i {
				neighbors[i] = append(neighbors[i], j)
			}
		}
	}
	opt := netsim.Options{MaxRounds: b.N + 2}
	if active < n {
		opt.Rng = rand.New(rand.NewSource(1))
		opt.LinkDropRate = func(from, _ int) float64 {
			if from < active {
				return 1
			}
			return 0
		}
	}
	driver, err := factory(neighbors, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer driver.Close()
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		c := &chatter{id: i}
		if i < active {
			c.rounds = b.N
		}
		nodes[i] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := driver.Run(nodes); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRoundMem(b *testing.B) { benchmarkRounds(b, netsim.MemFactory, 8) }

func BenchmarkRoundTCP(b *testing.B) { benchmarkRounds(b, transport.Factory, 8) }

func BenchmarkRoundMemOneActive(b *testing.B) { benchmarkRounds(b, netsim.MemFactory, 1) }

func BenchmarkRoundTCPOneActive(b *testing.B) { benchmarkRounds(b, transport.Factory, 1) }
