package netsim

import (
	"math/rand"
	"sync"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// maxNode floods the maximum value it has seen; the classic distributed
// max-consensus. It quiesces when a round brings no new information.
type maxNode struct {
	val     int
	best    int
	started bool
}

func (m *maxNode) Step(inbox []Message, out *Payload) bool {
	changed := !m.started
	if !m.started {
		m.best = m.val
		m.started = true
	}
	for _, msg := range inbox {
		if v := int(msg.Payload.Slot); v > m.best {
			m.best = v
			changed = true
		}
	}
	if changed {
		*out = intPayload(m.best)
		return false
	}
	return true
}

// intPayload carries v in a bid's Slot, for the test nodes that gossip
// integers.
func intPayload(v int) Payload { return Payload{HasBid: true, Slot: uint32(v)} }

func line(n int) [][]int {
	nb := make([][]int, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			nb[i] = append(nb[i], i-1)
		}
		if i < n-1 {
			nb[i] = append(nb[i], i+1)
		}
	}
	return nb
}

// concurrentStep is a StepFunc that steps every active node on its
// own goroutine with a barrier — the concurrency a socket substrate
// imposes, without the sockets. Rounds.Run promises identical results
// under any such fan; the driver-equivalence tests hold it to that under
// the race detector.
func concurrentStep(nodes []Node) StepFunc {
	return func(_ int, active []int, inboxes [][]Message, outs []Payload, done []bool) error {
		var wg sync.WaitGroup
		for _, i := range active {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				done[i] = nodes[i].Step(inboxes[i], &outs[i])
			}(i)
		}
		wg.Wait()
		return nil
	}
}

// runSession runs one session on the in-memory engine, or — concurrent —
// through Rounds.Run with concurrentStep.
func runSession(neighbors [][]int, opt Options, nodes []Node, concurrent bool) (Stats, error) {
	if concurrent {
		return new(Rounds).Run(neighbors, opt, concurrentStep(nodes))
	}
	return (&Engine{Neighbors: neighbors, Opt: opt}).Run(nodes)
}

func TestMaxConsensusOnLine(t *testing.T) {
	n := 8
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &maxNode{val: i * 3}
	}
	e := &Engine{Neighbors: line(n)}
	stats, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	want := (n - 1) * 3
	for i, nd := range nodes {
		if got := nd.(*maxNode).best; got != want {
			t.Errorf("node %d best = %d, want %d", i, got, want)
		}
	}
	// Information needs at least diameter rounds to cross the line.
	if stats.Rounds < n-1 {
		t.Errorf("rounds = %d, implausibly few", stats.Rounds)
	}
	if stats.Messages == 0 {
		t.Error("no messages counted")
	}
}

// The in-memory engine's sequential fan and a concurrent fan through the
// same round loop must agree on a line graph.
func TestSequentialAndParallelAgree(t *testing.T) {
	n := 10
	run := func(parallel bool) ([]int, Stats) {
		nodes := make([]Node, n)
		for i := 0; i < n; i++ {
			nodes[i] = &maxNode{val: (i * 7) % n}
		}
		stats, err := runSession(line(n), Options{}, nodes, parallel)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, n)
		for i, nd := range nodes {
			out[i] = nd.(*maxNode).best
		}
		return out, stats
	}
	seqVals, seqStats := run(false)
	parVals, parStats := run(true)
	for i := range seqVals {
		if seqVals[i] != parVals[i] {
			t.Fatalf("node %d: sequential %d != parallel %d", i, seqVals[i], parVals[i])
		}
	}
	if seqStats != parStats {
		t.Fatalf("stats differ: %+v vs %+v", seqStats, parStats)
	}
}

func TestQuiescenceOnSilentNetwork(t *testing.T) {
	nodes := []Node{&silentNode{}, &silentNode{}}
	e := &Engine{Neighbors: line(2)}
	stats, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || stats.Messages != 0 {
		t.Errorf("stats = %+v, want 1 silent round", stats)
	}
}

type silentNode struct{}

func (*silentNode) Step([]Message, *Payload) bool { return true }

// A node that never stops talking must trip MaxRounds.
type chattyNode struct{}

func (*chattyNode) Step(_ []Message, out *Payload) bool {
	*out = intPayload(1)
	return false
}

func TestMaxRoundsGuard(t *testing.T) {
	nodes := []Node{&chattyNode{}, &chattyNode{}}
	e := &Engine{Neighbors: line(2), Opt: Options{MaxRounds: 25}}
	stats, err := e.Run(nodes)
	if err != ErrNoQuiescence {
		t.Fatalf("err = %v, want ErrNoQuiescence", err)
	}
	if stats.Rounds != 25 {
		t.Errorf("rounds = %d, want 25", stats.Rounds)
	}
}

func TestDropAndDupAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 6
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &maxNode{val: i}
	}
	e := &Engine{Neighbors: line(n), Opt: Options{DropRate: 0.3, DupRate: 0.2, Rng: rng, MaxRounds: 500}}
	stats, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Error("expected some drops at 30% drop rate")
	}
	if stats.Duplicated == 0 {
		t.Error("expected some duplications at 20% dup rate")
	}
	// Max consensus re-floods on every change, so with rebroadcasts driven
	// by new info only, drops can stall propagation — but the line graph
	// with persistent retries via changed-detection still converges here
	// because every node rebroadcasts whenever it learns something new.
	for i, nd := range nodes {
		if got := nd.(*maxNode).best; got != n-1 {
			t.Logf("node %d best = %d under lossy network (acceptable)", i, got)
		}
	}
}

// reconcile asserts the documented message balance:
// Messages == Attempted - Dropped - CrashLost - Expired + Duplicated.
func reconcile(t *testing.T, st Stats) {
	t.Helper()
	if got := st.Attempted - st.Dropped - st.CrashLost - st.Expired + st.Duplicated; st.Messages != got {
		t.Errorf("counters do not reconcile: Messages=%d but Attempted-Dropped-CrashLost-Expired+Duplicated=%d (%+v)",
			st.Messages, got, st)
	}
}

// Satellite regression: failure injection used to be silently disabled
// when Rng was nil despite the rates asking for it. Every failure mode
// must refuse to run without an RNG.
func TestRngRequiredWhenFailureInjectionEnabled(t *testing.T) {
	cases := map[string]Options{
		"drop":  {DropRate: 0.1},
		"dup":   {DupRate: 0.1},
		"delay": {DelayRate: 0.1},
		"crash": {CrashRate: 0.1},
		"link":  {LinkDropRate: func(from, to int) float64 { return 0 }},
	}
	for name, opt := range cases {
		e := &Engine{Neighbors: line(2), Opt: opt}
		st, err := e.Run([]Node{&maxNode{val: 1}, &maxNode{val: 2}})
		if err != ErrRngRequired {
			t.Errorf("%s: err = %v, want ErrRngRequired", name, err)
		}
		if st != (Stats{}) {
			t.Errorf("%s: stats = %+v, want zero (run must not start)", name, st)
		}
	}
	// Zero rates without an RNG must keep working.
	e := &Engine{Neighbors: line(2)}
	if _, err := e.Run([]Node{&maxNode{val: 1}, &maxNode{val: 2}}); err != nil {
		t.Errorf("failure-free run without Rng: %v", err)
	}
}

// Deterministic drop/dup sweep: at every rate combination the per-mode
// counters must reconcile exactly with the delivered message count.
func TestDropDupSweepReconciles(t *testing.T) {
	n := 8
	for _, drop := range []float64{0, 0.1, 0.3, 0.6} {
		for _, dup := range []float64{0, 0.1, 0.3} {
			rng := rand.New(rand.NewSource(int64(1000 + int(drop*100)*10 + int(dup*100))))
			nodes := make([]Node, n)
			for i := 0; i < n; i++ {
				nodes[i] = &maxNode{val: i * 5}
			}
			e := &Engine{Neighbors: line(n), Opt: Options{DropRate: drop, DupRate: dup, Rng: rng, MaxRounds: 2000}}
			st, err := e.Run(nodes)
			if err != nil {
				t.Fatalf("drop=%v dup=%v: %v", drop, dup, err)
			}
			reconcile(t, st)
			if drop == 0 && st.Dropped != 0 {
				t.Errorf("drop=0 but Dropped=%d", st.Dropped)
			}
			if dup == 0 && st.Duplicated != 0 {
				t.Errorf("dup=0 but Duplicated=%d", st.Duplicated)
			}
			if st.Delayed != 0 || st.Crashes != 0 || st.CrashLost != 0 || st.Expired != 0 {
				t.Errorf("disabled modes fired: %+v", st)
			}
		}
	}
}

// Delay injection postpones deliveries but loses nothing: consensus must
// still complete exactly, with the delayed messages accounted.
func TestDelayInjectionDeliversLate(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(77))
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &maxNode{val: i * 2}
	}
	e := &Engine{Neighbors: line(n), Opt: Options{DelayRate: 0.5, MaxDelay: 3, Rng: rng, MaxRounds: 2000}}
	st, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, st)
	if st.Delayed == 0 {
		t.Error("expected delayed deliveries at 50% delay rate")
	}
	if st.Dropped != 0 || st.Expired != 0 {
		t.Errorf("delay must not lose messages: %+v", st)
	}
	for i, nd := range nodes {
		if got := nd.(*maxNode).best; got != (n-1)*2 {
			t.Errorf("node %d best = %d, want %d (delay-only network must converge)", i, got, (n-1)*2)
		}
	}
}

// onceNode broadcasts in its first step, then stays silent and counts
// every delivery it consumes.
type onceNode struct {
	sent     bool
	consumed int
}

func (o *onceNode) Step(inbox []Message, out *Payload) bool {
	o.consumed += len(inbox)
	if !o.sent {
		o.sent = true
		*out = intPayload(1)
		return false
	}
	return true
}

// Regression: a delayed message becoming due on a round where nobody
// broadcasts used to satisfy the quiescence check right after being moved
// into an inbox — counted in Messages but never consumed, silently turning
// delay into loss at the session tail. The session must run one more round
// so the destination actually sees it.
func TestDelayedMessageDueOnQuietRoundIsConsumed(t *testing.T) {
	// DelayRate=1 with MaxDelay=1 postpones every delivery by exactly one
	// round: both broadcasts from round 0 become due on round 1, where
	// nobody sends.
	rng := rand.New(rand.NewSource(1))
	nodes := []Node{&onceNode{}, &onceNode{}}
	e := &Engine{Neighbors: line(2), Opt: Options{DelayRate: 1, MaxDelay: 1, Rng: rng}}
	st, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, st)
	if st.Delayed != 2 {
		t.Fatalf("Delayed = %d, scenario must delay both broadcasts", st.Delayed)
	}
	var consumed int
	for _, nd := range nodes {
		consumed += nd.(*onceNode).consumed
	}
	if consumed != int(st.Messages) {
		t.Errorf("nodes consumed %d of %d counted deliveries", consumed, st.Messages)
	}
}

// stepCounter counts the steps of the node it wraps.
type stepCounter struct {
	Node
	steps int
}

func (c *stepCounter) Step(inbox []Message, out *Payload) bool {
	c.steps++
	return c.Node.Step(inbox, out)
}

// counted wraps every node in a stepCounter.
func counted(nodes ...Node) ([]Node, []*stepCounter) {
	wrapped := make([]Node, len(nodes))
	counters := make([]*stepCounter, len(nodes))
	for i, nd := range nodes {
		counters[i] = &stepCounter{Node: nd}
		wrapped[i] = counters[i]
	}
	return wrapped, counters
}

// A done node is stepped only in a round that delivers it a message, on
// either fan.
//
// Max-consensus on line(8) with values 3i: node i learns 3(i+r) in round
// r, so it broadcasts in rounds 0..7−i and reports done in round 8−i.
// Its left neighbor's last broadcast (round 8−i) reaches it in round
// 9−i, after which nothing does: node i ≥ 1 steps 10−i times. Node 0
// hears its last message in round 7 and reports done in round 8: 9
// steps. The session ends after round 8, so stepping every node in every
// round would take 9 steps each.
//
// Two onceNodes with every delivery delayed: each broadcasts in round 0,
// reports done in round 1 and is stepped once more, in the round its
// delayed message arrives — 3 steps each, however late that is.
func TestDoneNodeSteppedOnlyOnDelivery(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		n := 8
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = &maxNode{val: i * 3}
		}
		wrapped, counters := counted(nodes...)
		st, err := runSession(line(n), Options{}, wrapped, concurrent)
		if err != nil {
			t.Fatal(err)
		}
		if st.Rounds != 9 {
			t.Fatalf("concurrent=%v: line(8) consensus took %d rounds, want 9", concurrent, st.Rounds)
		}
		for i, c := range counters {
			want := 10 - i
			if i == 0 {
				want = 9
			}
			if c.steps != want {
				t.Errorf("concurrent=%v: line(8) node %d stepped %d times, want %d", concurrent, i, c.steps, want)
			}
		}

		opt := Options{DelayRate: 1, MaxDelay: 4, Rng: rand.New(rand.NewSource(3))}
		wrapped, counters = counted(&onceNode{}, &onceNode{})
		st, err = runSession(line(2), opt, wrapped, concurrent)
		if err != nil {
			t.Fatal(err)
		}
		reconcile(t, st)
		if st.Rounds < 4 {
			t.Fatalf("concurrent=%v: delayed pair took %d rounds: no delay outlasted a round, nothing to skip", concurrent, st.Rounds)
		}
		for i, c := range counters {
			if c.steps != 3 {
				t.Errorf("concurrent=%v: delayed pair node %d stepped %d times in %d rounds, want 3", concurrent, i, c.steps, st.Rounds)
			}
		}
	}
}

// Asymmetric loss: with the 0→1 direction fully lossy and 1→0 clean, node
// 1 never learns node 0's value while node 0 hears node 1 fine.
func TestAsymmetricLinkDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nodes := []Node{&maxNode{val: 9}, &maxNode{val: 1}}
	e := &Engine{Neighbors: line(2), Opt: Options{
		Rng: rng,
		LinkDropRate: func(from, to int) float64 {
			if from == 0 && to == 1 {
				return 1
			}
			return 0
		},
	}}
	st, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, st)
	if got := nodes[0].(*maxNode).best; got != 9 {
		t.Errorf("node 0 best = %d, want 9", got)
	}
	if got := nodes[1].(*maxNode).best; got != 1 {
		t.Errorf("node 1 best = %d, want 1 (0→1 is fully lossy)", got)
	}
	if st.Dropped == 0 {
		t.Error("expected drops on the lossy direction")
	}
}

// Crash/restart: crashed nodes skip rounds and lose their inbound
// traffic, all of it accounted, and the session still terminates.
func TestCrashRestartInjection(t *testing.T) {
	n := 8
	rng := rand.New(rand.NewSource(31))
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = &maxNode{val: i * 3}
	}
	e := &Engine{Neighbors: line(n), Opt: Options{CrashRate: 0.15, CrashDownRounds: 2, Rng: rng, MaxRounds: 2000}}
	st, err := e.Run(nodes)
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, st)
	if st.Crashes == 0 {
		t.Error("expected crash events at 15% crash rate")
	}
	if st.Dropped != 0 || st.Duplicated != 0 || st.Delayed != 0 {
		t.Errorf("disabled modes fired: %+v", st)
	}
}

// In-flight delayed messages discarded at MaxRounds must be accounted as
// Expired so the balance still closes on non-quiescent sessions.
func TestExpiredCountsInFlightAtMaxRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nodes := []Node{&chattyNode{}, &chattyNode{}}
	e := &Engine{Neighbors: line(2), Opt: Options{DelayRate: 0.6, MaxDelay: 4, Rng: rng, MaxRounds: 30}}
	st, err := e.Run(nodes)
	if err != ErrNoQuiescence {
		t.Fatalf("err = %v, want ErrNoQuiescence", err)
	}
	if st.Expired == 0 {
		t.Error("expected in-flight deliveries to expire at MaxRounds")
	}
	reconcile(t, st)
}

// countingNode broadcasts every round for ever and counts the deliveries
// it consumed.
type countingNode struct{ consumed int64 }

func (c *countingNode) Step(inbox []Message, out *Payload) bool {
	c.consumed += int64(len(inbox))
	*out = intPayload(1)
	return false
}

// A session cut by MaxRounds delivers its final round's messages to no
// node: they count as Expired, not Messages. Two talkers on a line with
// MaxRounds 3 consume 4 deliveries; the 2 sent in round 3 expire.
func TestMaxRoundsTailExpires(t *testing.T) {
	modes := map[string]Options{
		"clean": {},
		"chaos": {DropRate: 0.1, DupRate: 0.2, DelayRate: 0.3},
	}
	for name, opt := range modes {
		opt.MaxRounds = 3
		if name != "clean" {
			opt.MaxRounds = 40
			opt.Rng = rand.New(rand.NewSource(5))
		}
		a, b := &countingNode{}, &countingNode{}
		st, err := (&Engine{Neighbors: line(2), Opt: opt}).Run([]Node{a, b})
		if err != ErrNoQuiescence {
			t.Fatalf("%s: err = %v, want ErrNoQuiescence", name, err)
		}
		if consumed := a.consumed + b.consumed; st.Messages != consumed {
			t.Errorf("%s: Messages = %d, nodes consumed %d", name, st.Messages, consumed)
		}
		if name == "clean" && (st.Messages != 4 || st.Expired != 2) {
			t.Errorf("clean: Messages = %d, Expired = %d, want 4 and 2", st.Messages, st.Expired)
		}
		reconcile(t, st)
	}
}

// meshTalker broadcasts a bid for its first `rounds` steps.
type meshTalker struct{ rounds, stepped int }

func (m *meshTalker) Step(_ []Message, out *Payload) bool {
	m.stepped++
	if m.stepped > m.rounds {
		return true
	}
	*out = Payload{HasBid: true, Slot: 7, Color: 9, Delta: 0.5}
	return false
}

// A warm engine runs a session without allocating, however many rounds it
// lasts: the round loop refills its inboxes in place and sorts none.
func TestRoundLoopAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	const n = 8
	mesh := make([][]int, n)
	for i := range mesh {
		for j := 0; j < n; j++ {
			if j != i {
				mesh[i] = append(mesh[i], j)
			}
		}
	}
	e := &Engine{Neighbors: mesh}
	talkers := make([]*meshTalker, n)
	nodes := make([]Node, n)
	for i := range nodes {
		talkers[i] = &meshTalker{}
		nodes[i] = talkers[i]
	}
	session := func(rounds int) {
		for _, m := range talkers {
			*m = meshTalker{rounds: rounds}
		}
		st, err := e.Run(nodes)
		if err != nil || st.Rounds != rounds+1 {
			t.Fatalf("session of %d rounds: %+v, %v", rounds, st, err)
		}
	}
	session(1)
	short := testing.AllocsPerRun(20, func() { session(4) })
	long := testing.AllocsPerRun(20, func() { session(400) })
	t.Logf("allocs per session: %v at 4 rounds, %v at 400", short, long)
	if long > short {
		t.Errorf("allocs grow with the round count: %v at 4 rounds, %v at 400", short, long)
	}
	if short != 0 {
		t.Errorf("warm session allocates %v times, want 0", short)
	}
}

// stamped is the payload node from broadcasts in round: every field
// names the two, so a payload read from a rewritten slot shows.
func stamped(round, from int) Payload {
	return Payload{HasBid: true, Slot: uint32(round), Color: uint32(from), Delta: float64(round)*1e3 + float64(from)}
}

// A broadcast is stored once: within a round, every recipient's message
// from a sender points at that sender's slot of the previous round's
// outbox bank, which holds what it sent. A delayed delivery carries its
// own copy, intact though both banks were rewritten since it was sent.
func TestBroadcastByReference(t *testing.T) {
	const n, talk = 6, 12
	mesh := make([][]int, n)
	for i := range mesh {
		for j := 0; j < n; j++ {
			if j != i {
				mesh[i] = append(mesh[i], j)
			}
		}
	}
	for _, delayed := range []bool{false, true} {
		opt := Options{}
		if delayed {
			opt = Options{DelayRate: 0.5, MaxDelay: 3, Rng: rand.New(rand.NewSource(9))}
		}
		var prev []Payload // the outbox bank of the previous round
		late := 0          // deliveries consumed 3 or more rounds after their send
		step := func(round int, active []int, inboxes [][]Message, outs []Payload, done []bool) error {
			for _, i := range active {
				for _, m := range inboxes[i] {
					p := m.Payload
					want := stamped(int(p.Slot), m.From)
					if p.HasBid != want.HasBid || p.Color != want.Color || p.Delta != want.Delta || int(p.Slot) >= round {
						t.Fatalf("delayed=%v round %d: node %d got %+v from %d", delayed, round, i, *p, m.From)
					}
					if !delayed && (int(p.Slot) != round-1 || p != &prev[m.From]) {
						t.Fatalf("round %d: node %d's message from %d is not the sender's stored payload", round, i, m.From)
					}
					if round-int(p.Slot) >= 3 {
						late++
					}
				}
				done[i] = round >= talk
				if !done[i] {
					outs[i] = stamped(round, i)
				}
			}
			prev = outs
			return nil
		}
		st, err := new(Rounds).Run(mesh, opt, step)
		if err != nil {
			t.Fatal(err)
		}
		reconcile(t, st)
		if delayed && late == 0 {
			t.Fatal("no delayed delivery outlived both outbox banks: the check is vacuous")
		}
	}
}

func TestValidateTopology(t *testing.T) {
	if err := ValidateTopology(line(4)); err != nil {
		t.Errorf("valid line rejected: %v", err)
	}
	if err := ValidateTopology([][]int{{1}, {}}); err == nil {
		t.Error("asymmetric topology accepted")
	}
	if err := ValidateTopology([][]int{{0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if err := ValidateTopology([][]int{{5}}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Rounds: 1, Attempted: 9, Messages: 2, Dropped: 3, Duplicated: 4,
		Delayed: 5, Crashes: 6, CrashLost: 7, Expired: 8}
	a.Add(Stats{Rounds: 10, Attempted: 90, Messages: 20, Dropped: 30, Duplicated: 40,
		Delayed: 50, Crashes: 60, CrashLost: 70, Expired: 80})
	want := Stats{Rounds: 11, Attempted: 99, Messages: 22, Dropped: 33, Duplicated: 44,
		Delayed: 55, Crashes: 66, CrashLost: 77, Expired: 88}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
