package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceRunRounds is the round loop as it stood before the driver
// buffers (Rounds) were introduced, kept verbatim as the oracle of
// TestRunRoundsMatchesReference and FuzzRunRounds: it rebuilds every
// inbox from nil each round and stable-sorts every inbox by sender. The
// one documented difference is the MaxRounds tail: this loop leaves the
// final round's deliveries counted as Messages, Rounds.Run moves them to
// Expired.
func referenceRunRounds(neighbors [][]int, opt Options, step StepFunc) (Stats, error) {
	n := len(neighbors)
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	maxDelay := opt.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 3
	}
	downRounds := opt.CrashDownRounds
	if downRounds <= 0 {
		downRounds = 2
	}
	if opt.failureInjection() && opt.Rng == nil {
		return Stats{}, ErrRngRequired
	}

	var stats Stats
	inboxes := make([][]Message, n)
	outs := make([]Payload, n)
	var pending []delayedMsg // in-flight delayed deliveries, insertion-ordered
	var downUntil []int      // first round node i is up again (crash injection)
	var down []bool          // this round's outage mask, nil without crash injection
	if opt.CrashRate > 0 {
		downUntil = make([]int, n)
		down = make([]bool, n)
	}

	for round := 0; round < maxRounds; round++ {
		stats.Rounds++

		// Crash injection: decide this round's outages, then discard the
		// inbox of every down node. Draws happen in node order in this
		// single-threaded section, so every driver consumes the RNG
		// identically.
		if opt.CrashRate > 0 {
			for i := 0; i < n; i++ {
				if downUntil[i] > round {
					continue // still down
				}
				if opt.Rng.Float64() < opt.CrashRate {
					stats.Crashes++
					downUntil[i] = round + downRounds
				}
			}
			for i := 0; i < n; i++ {
				down[i] = downUntil[i] > round
				if down[i] && len(inboxes[i]) > 0 {
					// These deliveries were counted as Messages when they
					// entered the inbox but never reach the node: move
					// them to CrashLost so the balance stays exact.
					stats.CrashLost += int64(len(inboxes[i]))
					stats.Messages -= int64(len(inboxes[i]))
					inboxes[i] = nil
				}
			}
		}

		for i := range outs {
			outs[i] = nil
		}
		if err := step(round, down, inboxes, outs); err != nil {
			return stats, err
		}

		// Deliver. Inboxes are rebuilt from scratch — due delayed messages
		// first (in postponement order), then this round's sends — and
		// stable-sorted by sender so every driver sees identical input order.
		sent := false
		for i := range inboxes {
			inboxes[i] = nil
		}
		if len(pending) > 0 {
			kept := pending[:0]
			for _, d := range pending {
				if d.due > round+1 {
					kept = append(kept, d)
					continue
				}
				inboxes[d.to] = append(inboxes[d.to], d.msg)
				stats.Messages++
				// A due delayed delivery is traffic: the session must run one
				// more round so its destination consumes it, even if no node
				// broadcast this round.
				sent = true
			}
			pending = kept
		}
		for from, payload := range outs {
			if payload == nil {
				continue
			}
			sent = true
			for _, to := range neighbors[from] {
				stats.Attempted++
				deliveries := 1
				if opt.Rng != nil {
					dropRate := opt.DropRate
					if opt.LinkDropRate != nil {
						dropRate = opt.LinkDropRate(from, to)
					}
					if dropRate > 0 && opt.Rng.Float64() < dropRate {
						stats.Dropped++
						continue
					}
					if opt.DupRate > 0 && opt.Rng.Float64() < opt.DupRate {
						deliveries = 2
						stats.Duplicated++
					}
				}
				for d := 0; d < deliveries; d++ {
					if opt.DelayRate > 0 && opt.Rng.Float64() < opt.DelayRate {
						stats.Delayed++
						// An undelayed send is consumed in round+1; a delay
						// of d ∈ [1, maxDelay] rounds pushes that to
						// round+1+d.
						pending = append(pending, delayedMsg{
							due: round + 2 + opt.Rng.Intn(maxDelay),
							to:  to,
							msg: Message{From: from, Payload: payload},
						})
						continue
					}
					inboxes[to] = append(inboxes[to], Message{From: from, Payload: payload})
					stats.Messages++
				}
			}
		}
		for i := range inboxes {
			sort.SliceStable(inboxes[i], func(a, b int) bool {
				return inboxes[i][a].From < inboxes[i][b].From
			})
		}
		if !sent && len(pending) == 0 {
			return stats, nil
		}
	}
	stats.Expired += int64(len(pending))
	return stats, ErrNoQuiescence
}

// traceNode gossips a running hash of everything it consumed, for a
// per-session budget of rounds, and records every inbox it is handed.
// Its broadcasts depend on the exact order of its past inboxes, so any
// reordering surfaces both in its own record and downstream.
type traceNode struct {
	id, budget int
	clock      *int // steps taken by all nodes of the session so far
	stepped    int
	acc        int
	log        []tracedStep
}

// tracedStep is one inbox as a node consumed it. tick is the session's
// step count when it was consumed: with sequential stepping it pins the
// round and every outage before it.
type tracedStep struct {
	tick  int
	inbox []Message
}

func (n *traceNode) Step(inbox []Message) (Payload, bool) {
	n.log = append(n.log, tracedStep{*n.clock, append([]Message(nil), inbox...)})
	*n.clock++
	n.stepped++
	for _, m := range inbox {
		n.acc = (n.acc*31 + m.From*7 + m.Payload.(int)) % 1_000_003
	}
	if n.stepped > n.budget || (n.stepped > 1 && len(inbox) == 0 && n.acc%3 == 0) {
		return nil, true
	}
	return n.acc + n.id, false
}

// referenceSequential is the in-memory engine's stepping fan for the
// reference loop.
func referenceSequential(nodes []Node) StepFunc {
	return func(_ int, down []bool, inboxes [][]Message, outs []Payload) error {
		for i, nd := range nodes {
			if down != nil && down[i] {
				continue
			}
			outs[i], _ = nd.Step(inboxes[i])
		}
		return nil
	}
}

// oracleCase is a sequence of sessions on one topology: budgets[s][i] is
// node i's round budget in session s. The reference runs each session on
// fresh state; the Engine under test runs them all, in order, on its
// reused buffers. Both draw from their own RNG seeded with rngSeed.
type oracleCase struct {
	topo    [][]int
	opt     Options // Rng is set per side
	rngSeed int64
	budgets [][]int
}

// checkAgainstReference runs c on the Engine and on referenceRunRounds
// and requires the same error, the same Stats — after moving the
// reference's unconsumed final-round deliveries from Messages to Expired
// on a session that hit MaxRounds — and, for every node, the same
// sequence of consumed inboxes. It also requires Messages to equal the
// number of deliveries the nodes consumed.
func checkAgainstReference(t *testing.T, name string, c oracleCase) {
	t.Helper()
	n := len(c.topo)
	e := &Engine{Neighbors: c.topo, Opt: c.opt}
	e.Opt.Rng = rand.New(rand.NewSource(c.rngSeed))
	refOpt := c.opt
	refOpt.Rng = rand.New(rand.NewSource(c.rngSeed))
	if !c.opt.failureInjection() {
		// A clean run carries no RNG, as in the online layer.
		e.Opt.Rng, refOpt.Rng = nil, nil
	}
	session := func(budgets []int) ([]Node, []*traceNode) {
		clock := new(int)
		nodes := make([]Node, n)
		traced := make([]*traceNode, n)
		for i := range nodes {
			traced[i] = &traceNode{id: i, budget: budgets[i], clock: clock}
			nodes[i] = traced[i]
		}
		return nodes, traced
	}
	consumed := func(traced []*traceNode) int64 {
		var k int64
		for _, tn := range traced {
			for _, st := range tn.log {
				k += int64(len(st.inbox))
			}
		}
		return k
	}
	for s, budgets := range c.budgets {
		got, gotTrace := session(budgets)
		want, wantTrace := session(budgets)
		gotSt, gotErr := e.Run(got)
		wantSt, wantErr := referenceRunRounds(c.topo, refOpt, referenceSequential(want))
		if gotErr != wantErr {
			t.Fatalf("%s session %d: err %v, reference %v", name, s, gotErr, wantErr)
		}
		if wantErr == ErrNoQuiescence {
			tail := wantSt.Messages - consumed(wantTrace)
			wantSt.Messages -= tail
			wantSt.Expired += tail
		}
		if gotSt != wantSt {
			t.Fatalf("%s session %d: stats\n got  %+v\n want %+v", name, s, gotSt, wantSt)
		}
		if k := consumed(gotTrace); gotSt.Messages != k {
			t.Fatalf("%s session %d: Messages = %d, nodes consumed %d", name, s, gotSt.Messages, k)
		}
		for i := range gotTrace {
			g, w := gotTrace[i].log, wantTrace[i].log
			if len(g) != len(w) {
				t.Fatalf("%s session %d node %d: stepped %d times, reference %d", name, s, i, len(g), len(w))
			}
			for r := range g {
				if g[r].tick != w[r].tick || !slices.Equal(g[r].inbox, w[r].inbox) {
					t.Fatalf("%s session %d node %d step %d: inbox %v at tick %d, reference %v at tick %d",
						name, s, i, r, g[r].inbox, g[r].tick, w[r].inbox, w[r].tick)
				}
			}
		}
	}
}

// oracleModes are the failure settings the oracle sweeps: each mode
// alone, then all at once.
var oracleModes = []struct {
	name string
	opt  Options
}{
	{"clean", Options{}},
	{"drop", Options{DropRate: 0.25}},
	{"linkdrop", Options{LinkDropRate: func(from, to int) float64 {
		if from < to {
			return 0.4
		}
		return 0.05
	}}},
	{"dup", Options{DupRate: 0.3}},
	{"delay", Options{DelayRate: 0.35, MaxDelay: 4}},
	{"crash", Options{CrashRate: 0.08, CrashDownRounds: 3}},
	{"all", Options{DropRate: 0.15, DupRate: 0.15, DelayRate: 0.25, MaxDelay: 3, CrashRate: 0.05}},
}

// TestRunRoundsMatchesReference holds the buffer-reusing round loop to
// the verbatim original on random symmetric topologies under every
// failure mode: four consecutive sessions on one Engine, the second of
// which talks past MaxRounds, must match a fresh reference run each.
func TestRunRoundsMatchesReference(t *testing.T) {
	const maxRounds = 40
	for _, mode := range oracleModes {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(11)
			c := oracleCase{topo: randomTopology(rng, n), opt: mode.opt, rngSeed: seed * 977}
			c.opt.MaxRounds = maxRounds
			for s := 0; s < 4; s++ {
				budgets := make([]int, n)
				for i := range budgets {
					budgets[i] = rng.Intn(12)
					if s == 1 {
						budgets[i] = 2 * maxRounds // never falls silent
					}
				}
				c.budgets = append(c.budgets, budgets)
			}
			checkAgainstReference(t, fmt.Sprintf("%s seed %d", mode.name, seed), c)
		}
	}
}

// FuzzRunRounds decodes an oracle case from the fuzz bytes and holds the
// round loop to the reference on it. Byte 0 picks the node count (2–12),
// byte 1 the topology and RNG seed, byte 2 a bit set of failure modes
// (drop, link drop, dup, delay, crash), byte 3 MaxRounds (1–64). Every
// following byte is one node budget (0–31 rounds, 63 past MaxRounds when
// its top bit is set), filled session by session, at most four sessions.
func FuzzRunRounds(f *testing.F) {
	f.Add([]byte{4, 1, 0x00, 20, 3, 5, 1, 0})
	f.Add([]byte{8, 7, 0x1f, 12, 0x80, 4, 9, 2, 30, 1, 0, 5, 3, 3, 3, 3, 0x81, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		n := 2 + int(data[0])%11
		rng := rand.New(rand.NewSource(int64(data[1])))
		c := oracleCase{topo: randomTopology(rng, n), rngSeed: int64(data[1]) + 1}
		modes := data[2]
		if modes&1 != 0 {
			c.opt.DropRate = 0.2
		}
		if modes&2 != 0 {
			c.opt.LinkDropRate = func(from, to int) float64 { return float64((from*7+to*3)%5) / 10 }
		}
		if modes&4 != 0 {
			c.opt.DupRate = 0.25
		}
		if modes&8 != 0 {
			c.opt.DelayRate, c.opt.MaxDelay = 0.3, 1+int(modes>>5)
		}
		if modes&16 != 0 {
			c.opt.CrashRate, c.opt.CrashDownRounds = 0.1, 1+int(modes>>6)
		}
		c.opt.MaxRounds = 1 + int(data[3])%64
		rest := data[4:]
		for len(rest) > 0 && len(c.budgets) < 4 {
			budgets := make([]int, n)
			for i := range budgets {
				if len(rest) == 0 {
					break
				}
				budgets[i] = int(rest[0] % 32)
				if rest[0]&0x80 != 0 {
					budgets[i] = 63 + c.opt.MaxRounds
				}
				rest = rest[1:]
			}
			c.budgets = append(c.budgets, budgets)
		}
		checkAgainstReference(t, fmt.Sprintf("%x", data), c)
	})
}
