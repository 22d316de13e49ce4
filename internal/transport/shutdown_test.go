package transport

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/workload"
)

// assertNoEngineGoroutines fails the test if any transport engine
// goroutine (serve loops, context watchers, stepping fans) is still alive
// after a grace period. The check scans live goroutine stacks for engine
// method frames — the stdlib-only equivalent of a goleak assertion,
// scoped to this package so other tests' goroutines cannot false-positive.
func assertNoEngineGoroutines(t *testing.T) {
	t.Helper()
	const marker = "transport.(*Engine)"
	deadline := time.Now().Add(5 * time.Second)
	var stacks string
	for {
		buf := make([]byte, 1<<20)
		stacks = string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, marker) {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("leaked engine goroutines:\n%s", stacks)
}

// fullMesh is the all-pairs topology on n nodes.
func fullMesh(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		for j := 0; j < n; j++ {
			if j != i {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// chatterNode broadcasts a bid for a fixed number of rounds, then goes
// silent — a minimal protocol whose payloads the codec carries.
type chatterNode struct {
	id, rounds, stepped int
}

func (c *chatterNode) Step(inbox []netsim.Message) (netsim.Payload, bool) {
	c.stepped++
	if c.stepped > c.rounds {
		return netsim.Payload{}, true
	}
	return netsim.Payload{Kind: netsim.KindBid, Slot: uint32(c.stepped), Color: uint32(c.id), Delta: float64(c.stepped)}, false
}

func chatterNodes(n, rounds int) []netsim.Node {
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		nodes[i] = &chatterNode{id: i, rounds: rounds}
	}
	return nodes
}

func TestEngineRunsAndClosesCleanly(t *testing.T) {
	e, err := New(fullMesh(4), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run(chatterNodes(4, 5))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 5 chatter rounds from 4 nodes over a full mesh, plus the quiescent
	// round: the socket substrate must account exactly like netsim.
	if want := int64(4 * 3 * 5); st.Messages != want || st.Attempted != want {
		t.Errorf("stats = %+v, want %d messages", st, want)
	}
	if st.Rounds != 6 {
		t.Errorf("rounds = %d, want 6 (5 chatter rounds + the quiescent one)", st.Rounds)
	}
	// Sessions are repeatable on one engine, like the in-memory driver.
	if _, err := e.Run(chatterNodes(4, 2)); err != nil {
		t.Fatalf("second session: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Run(chatterNodes(4, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Run after Close: err = %v, want ErrClosed", err)
	}
	if err := e.Reset(fullMesh(4), netsim.Options{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Reset after Close: err = %v, want ErrClosed", err)
	}
	assertNoEngineGoroutines(t)
}

func TestCloseWithoutRunLeaksNothing(t *testing.T) {
	e, err := New(fullMesh(3), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

// sabotageNode crashes its own process mid-round: at step `at` it tears
// down its connection, so the coordinator's round trip fails while the
// session is in flight.
type sabotageNode struct {
	e       *Engine
	idx, at int
	stepped int
}

func (n *sabotageNode) Step(inbox []netsim.Message) (netsim.Payload, bool) {
	n.stepped++
	if n.stepped == n.at {
		n.e.servers[n.idx].conn.Close()
	}
	return netsim.Payload{Kind: netsim.KindBid, Slot: uint32(n.stepped), Color: uint32(n.idx), Delta: 1}, false
}

func TestNodeCrashMidRoundAbortsSession(t *testing.T) {
	e, err := New(fullMesh(3), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := chatterNodes(3, 1000)
	nodes[1] = &sabotageNode{e: e, idx: 1, at: 3}
	st, err := e.Run(nodes)
	if err == nil {
		t.Fatal("Run survived a node tearing down its connection")
	}
	if errors.Is(err, netsim.ErrNoQuiescence) {
		t.Fatalf("crash reported as non-quiescence: %v", err)
	}
	if st.Rounds == 0 {
		t.Error("no rounds recorded before the crash")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

func TestContextCancellationAbortsSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, err := NewContext(ctx, fullMesh(3), netsim.Options{MaxRounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// Endless chatter: only the cancellation can end this session (the
	// round cap would report ErrNoQuiescence instead, failing the test).
	_, err = e.Run(chatterNodes(3, 1<<30))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: err = %v, want context.Canceled", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

// An online run builds one engine for all its negotiations and closes it
// on every exit path: no engine goroutine survives a run that ends
// cleanly, one whose context is cancelled before it starts, or one
// cancelled while its negotiations are in flight.
func TestOnlineRunLeavesNoEngineGoroutines(t *testing.T) {
	cfg := workload.Default()
	cfg.NumChargers, cfg.NumTasks = 12, 40
	cfg.DurationMin, cfg.DurationMax = 5, 20
	cfg.ReleaseMax = 10
	p, err := core.NewProblem(cfg.Generate(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	factory := func(ctx context.Context) netsim.Factory {
		return func(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
			builds++
			return NewContext(ctx, neighbors, opt)
		}
	}

	res, err := online.Run(p, online.Options{Seed: 1, Driver: factory(context.Background())})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if negs := len(res.Stats.Negotiations); builds != 1 || negs < 2 {
		t.Errorf("clean run built %d engines for %d negotiations, want 1 for at least 2", builds, negs)
	}
	assertNoEngineGoroutines(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := online.Run(p, online.Options{Seed: 1, Driver: factory(ctx)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	assertNoEngineGoroutines(t)

	// If the run finishes before the timer fires the error is nil; the
	// goroutine check holds either way.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := online.Run(p, online.Options{Seed: 1, Colors: 4, Driver: factory(ctx)}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation: err = %v, want context.Canceled", err)
	}
	assertNoEngineGoroutines(t)
}

func TestListenerCloseDoesNotDisturbEstablishedSession(t *testing.T) {
	e, err := New(fullMesh(3), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The per-node connections are established in New; the listeners only
	// matter for new dials, so closing one mid-life must not affect the
	// session traffic.
	if err := e.servers[0].ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(chatterNodes(3, 4)); err != nil {
		t.Fatalf("Run after listener close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

func TestNewRejectsBadTopology(t *testing.T) {
	if _, err := New([][]int{{0}}, netsim.Options{}); err == nil {
		t.Error("self-loop topology accepted")
	}
	if _, err := New([][]int{{1}, {}}, netsim.Options{}); err == nil {
		t.Error("asymmetric topology accepted")
	}
	e, err := New(fullMesh(2), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reset([][]int{{1}, {}}, netsim.Options{}); err == nil {
		t.Error("Reset accepted an asymmetric topology")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

func TestNodeAddrIsLoopback(t *testing.T) {
	e, err := New(fullMesh(2), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2; i++ {
		addr := e.servers[i].ln.Addr().String()
		if !strings.HasPrefix(addr, "127.0.0.1:") {
			t.Errorf("node %d bound to %s, want loopback", i, addr)
		}
	}
}
