package transport

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"haste/internal/netsim"
)

// A warm round over sockets allocates nothing: on the 8-node chatter mesh
// of benchmarkRounds a whole session costs no allocation at 4 rounds or
// at 400, so neither does any of its rounds.
func TestRoundTCPAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	const n = 8
	e, err := New(fullMesh(n), netsim.Options{MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	talkers := make([]*chatterNode, n)
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		talkers[i] = &chatterNode{}
		nodes[i] = talkers[i]
	}
	session := func(rounds int) {
		for i, c := range talkers {
			*c = chatterNode{id: i, rounds: rounds}
		}
		st, err := e.Run(nodes)
		if err != nil || st.Rounds != rounds+1 {
			t.Fatalf("session of %d rounds: %+v, %v", rounds, st, err)
		}
	}
	session(4)
	short := testing.AllocsPerRun(10, func() { session(4) })
	long := testing.AllocsPerRun(10, func() { session(400) })
	t.Logf("allocs per session: %v at 4 rounds, %v at 400", short, long)
	if short != 0 || long != 0 {
		t.Errorf("warm sessions allocate %v times at 4 rounds and %v at 400, want 0", short, long)
	}
}

// After Run returns, no serve goroutine holds the session's nodes: an
// engine kept for the next negotiation must not pin the last one's agents.
func TestRunUninstallsNodes(t *testing.T) {
	e, err := New(fullMesh(3), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, rounds := range []int{3, 0} {
		if _, err := e.Run(chatterNodes(3, rounds)); err != nil {
			t.Fatal(err)
		}
		for i, s := range e.servers {
			s.mu.Lock()
			node := s.node
			s.mu.Unlock()
			if node != nil {
				t.Errorf("after a %d-round session, node %d is still installed", rounds, i)
			}
		}
	}
}

// Both engines refuse a node set of the wrong size with ErrNodeCount,
// before running a round, and still run the right one afterwards.
func TestRunRejectsWrongNodeCount(t *testing.T) {
	const n = 3
	for _, f := range []struct {
		name    string
		factory netsim.Factory
	}{{"mem", netsim.MemFactory}, {"tcp", Factory}} {
		t.Run(f.name, func(t *testing.T) {
			d, err := f.factory(fullMesh(n), netsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for _, k := range []int{0, n - 1, n + 1} {
				st, err := d.Run(chatterNodes(k, 2))
				if !errors.Is(err, netsim.ErrNodeCount) || st != (netsim.Stats{}) {
					t.Errorf("%d nodes on a %d-node topology: %+v, %v; want no round and ErrNodeCount", k, n, st, err)
				}
			}
			if st, err := d.Run(chatterNodes(n, 2)); err != nil || st.Rounds != 3 {
				t.Errorf("%d nodes after the refusals: %+v, %v", n, st, err)
			}
		})
	}
	assertNoEngineGoroutines(t)
}

// badPayloadNode returns a payload the codec has no encoding for: an UPD
// covering a negative task index, which no u32 field can carry.
type badPayloadNode struct{}

func (badPayloadNode) Step(_ []netsim.Message, out *netsim.Payload) bool {
	*out = netsim.Payload{HasUpd: true, Covers: []int{-1}}
	return false
}

// A Step result the node's serve loop cannot encode ends that loop; its
// connection closes with it, so the coordinator's read fails and the
// session aborts instead of waiting for a response that never comes.
func TestUnencodableStepResultAbortsSession(t *testing.T) {
	e, err := New(fullMesh(3), netsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := chatterNodes(3, 5)
	nodes[2] = badPayloadNode{}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(nodes)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, netsim.ErrNoQuiescence) {
			t.Errorf("Run: err = %v, want a link error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still waits for the node whose serve loop ended")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t)
}

// logNode broadcasts a bid for its first talk rounds and keeps a copy of
// every inbox it consumes, payloads by value, each behind a tick message
// (From −1) carrying the step number.
type logNode struct {
	id, talk, stepped int
	log               []loggedMsg
}

// loggedMsg is a consumed message with its payload's value.
type loggedMsg struct {
	From    int
	Payload netsim.Payload
}

func (n *logNode) Step(inbox []netsim.Message, out *netsim.Payload) bool {
	n.stepped++
	n.log = append(n.log, loggedMsg{From: -1, Payload: netsim.Payload{Seq: uint32(n.stepped)}})
	for _, m := range inbox {
		n.log = append(n.log, loggedMsg{m.From, *m.Payload})
	}
	if n.stepped > n.talk {
		return true
	}
	*out = netsim.Payload{HasBid: true, Slot: uint32(n.stepped), Color: uint32(n.id), Delta: float64(len(inbox))}
	return false
}

func logNodes(n, talk int) ([]*logNode, []netsim.Node) {
	logs := make([]*logNode, n)
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		logs[i] = &logNode{id: i, talk: talk}
		nodes[i] = logs[i]
	}
	return logs, nodes
}

// ring is the cycle topology on n nodes.
func ring(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = []int{(i + n - 1) % n, (i + 1) % n}
	}
	return out
}

// chaos is every failure mode at once, drawn from a fresh seeded RNG.
func chaos(seed int64, maxRounds int) netsim.Options {
	return netsim.Options{
		DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, MaxDelay: 3,
		CrashRate: 0.05, CrashDownRounds: 2,
		Rng: rand.New(rand.NewSource(seed)), MaxRounds: maxRounds,
	}
}

// For both engines, a session after Reset(B) is the session a fresh
// engine built on B runs: the same Stats, the same error and the same
// consumed inboxes, though the reset engine's last session on A was cut
// by MaxRounds with delayed messages still in flight. Reset to another
// node count fails, and Close still ends the engine.
func TestResetMatchesFreshEngine(t *testing.T) {
	const n = 6
	for _, f := range []struct {
		name    string
		factory netsim.Factory
	}{{"mem", netsim.MemFactory}, {"tcp", Factory}} {
		t.Run(f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				reused, err := f.factory(fullMesh(n), chaos(100+seed, 6))
				if err != nil {
					t.Fatal(err)
				}
				_, nodes := logNodes(n, 20)
				if _, err := reused.Run(nodes); !errors.Is(err, netsim.ErrNoQuiescence) {
					t.Fatalf("seed %d: session on A: err = %v, want ErrNoQuiescence", seed, err)
				}
				if err := reused.Reset(ring(n), chaos(seed, 40)); err != nil {
					t.Fatalf("seed %d: Reset: %v", seed, err)
				}
				gotLogs, nodes := logNodes(n, 8)
				got, gotErr := reused.Run(nodes)

				fresh, err := f.factory(ring(n), chaos(seed, 40))
				if err != nil {
					t.Fatal(err)
				}
				wantLogs, nodes := logNodes(n, 8)
				want, wantErr := fresh.Run(nodes)
				fresh.Close()

				if got != want || !errors.Is(gotErr, wantErr) {
					t.Errorf("seed %d: after Reset %+v, %v; fresh %+v, %v", seed, got, gotErr, want, wantErr)
				}
				for i := range gotLogs {
					if !reflect.DeepEqual(gotLogs[i].log, wantLogs[i].log) {
						t.Errorf("seed %d: node %d consumed other inboxes after Reset than on a fresh engine", seed, i)
					}
				}
				if err := reused.Reset(fullMesh(n+1), netsim.Options{}); !errors.Is(err, netsim.ErrNodeCount) {
					t.Errorf("seed %d: Reset to %d nodes: err = %v, want ErrNodeCount", seed, n+1, err)
				}
				if err := reused.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	assertNoEngineGoroutines(t)
}
