// Package netsim is the distributed-execution substrate for the online
// algorithm: an in-memory broadcast network that drives a set of nodes
// (one per wireless charger) through synchronized communication rounds and
// accounts for every message delivered — the quantities Fig. 16 of the
// paper reports.
//
// The paper's Algorithm 3 runs asynchronously; its proof of Theorem 6.1
// shows the asynchronous executions can be reordered into a global
// sequence (the DAG/topological-sort argument), so a round-synchronized
// engine reproduces the algorithm's behaviour exactly while keeping runs
// reproducible. The in-memory engine steps the nodes sequentially; the
// StepFunc/Rounds seam lets other substrates (the loopback TCP engine
// of package transport) supply their own stepping fan, and the engine
// supports optional failure injection to exercise the negotiation
// protocol's tolerance.
//
// # Idle nodes
//
// Algorithm 3 is message-driven: a charger acts only while it still has
// a bid to place or when a message reaches it. The round loop keeps that
// shape. A node that returned done is stepped again in the session only
// in a round that delivers it at least one message, so a round steps the
// nodes still negotiating plus those being told something — over TCP, a
// done node with nothing to read gets no frame at all. The Node contract
// makes the skipped step a no-op, so skipping changes no round, delivery,
// RNG draw or Stats counter. The loop hands the StepFunc the round's
// active list, the nodes to step in ascending order, read off a wake
// bitset, and every other per-round pass — clearing outboxes, resetting
// inboxes, delivering — walks that list or the nodes the last delivery
// reached; only crash injection's draws visit every node.
//
// # Buffer reuse
//
// Every driver owns a Rounds: the per-node inboxes, the outbox banks,
// in-flight delayed deliveries and crash bookkeeping of the round loop.
// It is reset at the start of each session and reused across the rounds
// and sessions of every negotiation the driver runs (one driver serves a
// whole online run, see Driver.Reset), so a warm round loop allocates
// nothing.
// The price is a lifetime rule: an inbox handed to Node.Step or to a
// StepFunc, and every payload its messages point at, is valid only
// during that call. An inbox is sorted by sender (stable, so a sender's
// messages keep their delivery order); the loop sorts only in a round
// that delivered delayed messages, since sends are appended in sender
// order already.
//
// # Messages
//
// Payload is the one fixed layout of the paper's control message
// msg(ID, TIM, COL, CMD, ΔF, e), with no message kinds: a bid, an UPD and
// the reliability layer's acks are optional parts of the same payload,
// and a payload with no part is silence. A broadcast is stored once: a
// node's Step writes its payload into its slot of the round's outbox
// bank, and every recipient's Message points at that one slot, read-only.
// The loop alternates two banks, so the payloads a round reads (the
// previous round's) are never the ones it writes. A delayed delivery
// outlives its bank: it keeps a copy of the payload until it is due and
// is handed out from that copy. The copies share only Covers and Acks,
// which a sender never mutates after the send and receivers only read.
//
// # Failure model
//
// Four failure modes can be injected, all seeded and deterministic:
//
//   - message drop (DropRate, or per directed link via LinkDropRate),
//   - message duplication (DupRate),
//   - bounded message delay (DelayRate/MaxDelay) — a delayed message is
//     delivered 1..MaxDelay rounds late, which also reorders it relative
//     to later traffic on the same link,
//   - node crash/restart (CrashRate/CrashDownRounds) — a crashed node is
//     not stepped for CrashDownRounds rounds and every message addressed
//     to it while it is down is lost; it restarts with its state intact
//     (the fault is the outage and the lost traffic, not amnesia).
//
// All random draws happen in the single-threaded delivery/bookkeeping
// sections of the round loop, so every driver consumes the RNG
// identically and produces bit-identical outcomes.
package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Payload is the negotiation's one control message, the paper's
// msg(ID, TIM, COL, CMD, ΔF, e). It carries any mix of three parts: a bid
// (HasBid: the sender's best marginal Delta, CMD=NULL), an UPD (HasUpd:
// the sender's commit number Seq, covering Covers, CMD=UPD) and the acks
// the reliability layer owes. A payload with no part is silence. A bid
// and an UPD in one payload share its (Slot, Color).
type Payload struct {
	HasBid, HasUpd bool    // which of the bid and the UPD the message carries
	Seq            uint32  // UPD: the commit number
	Slot, Color    uint32  // the session (TIM, COL) of the bid and the UPD
	Delta          float64 // bid: ΔF
	Covers         []int   // UPD: the committed policy's tasks (e); shared, read-only
	Acks           []Ack   // the acks owed; shared, read-only
}

// Silent reports whether the payload carries no part: nothing is broadcast.
func (p *Payload) Silent() bool { return !p.HasBid && !p.HasUpd && len(p.Acks) == 0 }

// Ack acknowledges charger To's UPD number Seq for (Slot, Color).
type Ack struct {
	Slot, Color, To, Seq uint32
}

// Message is a delivered message: its sender and the payload it
// broadcast. Payload points at the sender's one stored copy, which every
// recipient of the broadcast shares: it is read-only, and valid only as
// long as the inbox holding the message.
type Message struct {
	From    int
	Payload *Payload
}

// Node is a participant. Each round the engine hands it the messages
// delivered this round and a silent outbox slot; the node writes into
// out the payload to broadcast to all its neighbors (leaving it silent
// for silence) and returns whether it considers its work done. A node
// that returned done is stepped again in the session only in a round
// that delivers it a message (it may still need to answer); until then
// the round loop skips it. A node must therefore make Step on an empty
// inbox after it returned done a no-op: silence, done again, and no
// change of state. The inbox, the payloads it points at and out are
// valid only during the call: the round loop refills the same storage in
// later rounds, so a node that needs a message after Step returns must
// copy its payload. The copy may keep the payload's Covers and Acks,
// which no sender mutates.
type Node interface {
	Step(inbox []Message, out *Payload) (done bool)
}

// Driver is the execution-substrate contract of the negotiation protocol:
// Run drives a set of nodes through synchronized rounds to quiescence and
// accounts for every message. Both the in-memory Engine and the loopback
// TCP engine (package transport) implement it; the algorithm's behaviour
// must be invariant to which one carries the messages — the cross-driver
// differential suite (difftest.DriverSweep) enforces bit-identical
// outcomes and exactly reconciled Stats.
//
// Run may be called repeatedly (once per negotiation session). Reset
// points the driver at the next negotiation's topology and options over
// the same node count (another count is an error), keeping its substrate
// and round buffers; a run after Reset is the run a fresh driver built on
// that topology would make. Close releases any substrate resources
// (sockets, listeners, goroutines) and must be called exactly once when
// the driver is no longer needed. Closing the in-memory engine is a no-op.
type Driver interface {
	Run(nodes []Node) (Stats, error)
	Reset(neighbors [][]int, opt Options) error
	Close() error
}

// Factory builds a Driver over a topology. The online layer calls it once
// per online run, at its first arrival-triggered negotiation, and Resets
// the driver for each later one; every negotiation hands over its session
// topology and the fully populated Options (failure injection Rng
// included), so every driver consumes the same RNG draws in the same
// order.
type Factory func(neighbors [][]int, opt Options) (Driver, error)

// Options configures an engine run.
type Options struct {
	// DropRate is the probability each individual delivery is lost.
	DropRate float64
	// LinkDropRate, when non-nil, overrides DropRate per directed link
	// (from, to) — asymmetric loss: A→B may be lossy while B→A is clean.
	// It must be a pure function for runs to stay deterministic.
	LinkDropRate func(from, to int) float64
	// DupRate is the probability each delivery is duplicated.
	DupRate float64
	// DelayRate is the probability each delivery is postponed by a delay
	// drawn uniformly from 1..MaxDelay rounds (delivered late, and hence
	// possibly reordered relative to later traffic).
	DelayRate float64
	// MaxDelay bounds the injected delay in rounds (default 3).
	MaxDelay int
	// CrashRate is the per-node per-round probability that an up node
	// crashes. A crashed node is down for CrashDownRounds rounds: it is
	// not stepped and all messages addressed to it are lost.
	CrashRate float64
	// CrashDownRounds is the outage length of one crash (default 2).
	CrashDownRounds int
	// Rng drives failure injection; required if any failure mode above is
	// enabled (Run returns ErrRngRequired otherwise).
	Rng *rand.Rand
	// MaxRounds caps a session (default 10000).
	MaxRounds int
}

// failureInjection reports whether any failure mode is enabled.
func (o Options) failureInjection() bool {
	return o.DropRate > 0 || o.DupRate > 0 || o.DelayRate > 0 ||
		o.CrashRate > 0 || o.LinkDropRate != nil
}

// Stats accounts for one engine session. The counters reconcile exactly:
//
//	Messages == Attempted - Dropped - CrashLost - Expired + Duplicated
//
// (Delayed deliveries are still delivered — late — so delay moves rounds,
// not the message balance; a delivery can be both duplicated and delayed.)
// Messages counts only deliveries a node consumed: when a session hits
// MaxRounds, the deliveries of its final round and the delayed ones
// still in flight count as Expired instead.
type Stats struct {
	Rounds     int   // rounds executed (the final quiescent round included)
	Attempted  int64 // per-link send attempts before any failure injection
	Messages   int64 // deliveries that reached a node and were consumed
	Dropped    int64 // deliveries lost to drop injection
	Duplicated int64 // extra deliveries from duplication
	Delayed    int64 // deliveries postponed by delay injection
	Crashes    int64 // node crash events
	CrashLost  int64 // deliveries lost because the destination was down
	Expired    int64 // deliveries left unconsumed at MaxRounds (in flight or final-round)
}

// Add accumulates another session's stats.
func (s *Stats) Add(o Stats) {
	s.Rounds += o.Rounds
	s.Attempted += o.Attempted
	s.Messages += o.Messages
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
	s.Crashes += o.Crashes
	s.CrashLost += o.CrashLost
	s.Expired += o.Expired
}

// ErrNoQuiescence is returned when MaxRounds elapses with traffic still
// flowing.
var ErrNoQuiescence = errors.New("netsim: session did not quiesce within MaxRounds")

// ErrRngRequired is returned by Run when a failure mode is enabled but
// Options.Rng is nil — failure injection silently disabled would make
// every chaos experiment a no-op.
var ErrRngRequired = errors.New("netsim: Options.Rng is required when failure injection is enabled")

// ErrNodeCount is returned by Driver.Run for a node set, and by
// Driver.Reset for a topology, whose node count differs from the
// driver's.
var ErrNodeCount = errors.New("netsim: node count differs from the driver's")

// Engine drives sessions over a topology, which Reset may swap for
// another over the same node count. Neighbors[i] lists the node indices
// adjacent to node i; the relation must be symmetric. An Engine keeps its
// round buffers from one Run to the next, so it must not run two sessions
// at once.
type Engine struct {
	Neighbors [][]int
	Opt       Options

	rounds Rounds
	nodes  []Node   // the running session's nodes
	step   StepFunc // e.stepSequential, bound once
}

// delayedMsg is an in-flight delivery postponed by delay injection. It
// holds its own copy of the payload: the outbox bank it was sent from is
// rewritten two rounds later.
type delayedMsg struct {
	due      int // round whose Step consumes it
	to, from int
	payload  Payload
}

// Run drives the nodes until a round passes with no broadcasts and no
// in-flight delayed messages (global quiescence) or MaxRounds is hit.
// len(nodes) must equal len(Neighbors); another count is ErrNodeCount.
func (e *Engine) Run(nodes []Node) (Stats, error) {
	if len(nodes) != len(e.Neighbors) {
		return Stats{}, fmt.Errorf("%w: %d nodes for a %d-node topology", ErrNodeCount, len(nodes), len(e.Neighbors))
	}
	if e.step == nil {
		e.step = e.stepSequential
	}
	e.nodes = nodes
	st, err := e.rounds.Run(e.Neighbors, e.Opt, e.step)
	e.nodes = nil
	return st, err
}

// Reset implements Driver: the next sessions run over neighbors with opt.
// The node count must stay len(Neighbors).
func (e *Engine) Reset(neighbors [][]int, opt Options) error {
	if len(neighbors) != len(e.Neighbors) {
		return fmt.Errorf("%w: %d nodes, the engine has %d", ErrNodeCount, len(neighbors), len(e.Neighbors))
	}
	e.Neighbors, e.Opt = neighbors, opt
	return nil
}

// Close implements Driver. The in-memory engine holds no resources.
func (e *Engine) Close() error { return nil }

// MemFactory is the Factory of the in-memory engine — the default
// substrate when no driver is selected.
func MemFactory(neighbors [][]int, opt Options) (Driver, error) {
	return &Engine{Neighbors: neighbors, Opt: opt}, nil
}

// stepSequential steps the round's active nodes one by one on the
// calling goroutine, each writing its broadcast in place.
func (e *Engine) stepSequential(_ int, active []int, inboxes [][]Message, outs []Payload, done []bool) error {
	for _, i := range active {
		done[i] = e.nodes[i].Step(inboxes[i], &outs[i])
	}
	return nil
}

// StepFunc executes one round's stepping fan for Rounds.Run: for every
// node i of active, which lists the round's nodes to step in ascending
// order, it must run Step on node i's inbox with &outs[i] as the outbox
// (pre-cleared to silence) and store the done flag in done[i]. A node
// left out of active — held down by crash injection, or done with an
// empty inbox — needs no action: done[i] keeps its last report. A non-nil
// error aborts the session — substrates use it for link failures the
// round loop itself cannot see. The inboxes and the payloads they point
// at are valid only until the StepFunc returns: the round loop refills
// the same storage in later rounds.
type StepFunc func(round int, active []int, inboxes [][]Message, outs []Payload, done []bool) error

// Rounds holds the per-node state of the round loop: inboxes, outbox
// banks, done flags, in-flight delayed deliveries and crash bookkeeping.
// A driver owns one and runs every session through it, across
// negotiations, so once the buffers have grown to the traffic's
// high-water mark a round allocates nothing.
// Each Run resets them first: nothing a session left behind — undelivered
// messages of a session that hit MaxRounds included — reaches the next.
// The zero value is ready to use; a Rounds must not run two sessions at
// once.
type Rounds struct {
	inboxes [][]Message
	// banks[round&1] holds the outboxes a round's nodes write; the
	// inboxes that round delivers point into it. The next round reads
	// them while its nodes write the other bank.
	banks      [2][]Payload
	done       []bool       // done[i]: node i's last Step reported done
	wake       []uint64     // bit i: node i is stepped next round (not done, or has mail)
	active     []int        // this round's nodes to step, ascending
	recipients []int        // nodes the last delivery gave a message, each once
	pending    []delayedMsg // in-flight delayed deliveries, insertion-ordered
	due        []delayedMsg // the delayed deliveries this round handed out
	downUntil  []int        // first round node i is up again (crash injection)
}

// reset sizes the buffers for n nodes and empties them: no inbox holds
// a message and every node is stepped in the first round.
func (r *Rounds) reset(n int) {
	r.inboxes = slices.Grow(r.inboxes[:0], n)[:n]
	for i := range r.inboxes {
		r.inboxes[i] = r.inboxes[i][:0]
	}
	for b := range r.banks {
		r.banks[b] = slices.Grow(r.banks[b][:0], n)[:n]
	}
	r.done = slices.Grow(r.done[:0], n)[:n]
	clear(r.done)
	words := (n + 63) / 64
	r.wake = slices.Grow(r.wake[:0], words)[:words]
	for i := range r.wake {
		r.wake[i] = ^uint64(0)
	}
	if n%64 != 0 {
		r.wake[words-1] = 1<<(n%64) - 1
	}
	// Each node is active, and a recipient, at most once a round.
	r.active = slices.Grow(r.active[:0], n)
	r.recipients = slices.Grow(r.recipients[:0], n)
	r.pending = r.pending[:0]
	r.downUntil = slices.Grow(r.downUntil[:0], n)[:n]
	clear(r.downUntil)
}

// wakeNext marks node i to be stepped next round.
func (r *Rounds) wakeNext(i int) { r.wake[i>>6] |= 1 << (i & 63) }

// deliver appends m to node to's inbox. The first message of a delivery
// makes to a recipient, so its inbox is reset before the next delivery,
// and wakes it for the next round.
func (r *Rounds) deliver(to int, m Message) {
	if len(r.inboxes[to]) == 0 {
		r.recipients = append(r.recipients, to)
		r.wakeNext(to)
	}
	r.inboxes[to] = append(r.inboxes[to], m)
}

// bySender orders messages by sender, for a stable sort.
func bySender(a, b Message) int { return cmp.Compare(a.From, b.From) }

// Run is the substrate-independent session loop every Driver shares:
// crash draws, the active list, delivery bookkeeping and all
// failure-injection RNG draws happen here, single-threaded, in a fixed
// order — before (crash, active) and after (drop/dup/delay) the stepping
// fan. A driver only supplies the fan, so the sequential and socket
// drivers — and any fan that steps the active nodes in any order or
// concurrently — consume the RNG identically, step the same nodes and
// produce bit-identical Stats and inbox orderings by construction. It
// runs until a round passes with no broadcasts and no in-flight delayed
// messages (global quiescence), MaxRounds is hit (ErrNoQuiescence), or
// the step fan fails.
func (r *Rounds) Run(neighbors [][]int, opt Options, step StepFunc) (Stats, error) {
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

	r.reset(n)
	var stats Stats
	inboxes, done := r.inboxes, r.done

	for round := 0; round < maxRounds; round++ {
		stats.Rounds++

		// Crash injection: decide this round's outages. Draws happen in
		// node order in this single-threaded section, so every driver
		// consumes the RNG identically.
		if opt.CrashRate > 0 {
			for i := 0; i < n; i++ {
				if r.downUntil[i] > round {
					continue // still down
				}
				if opt.Rng.Float64() < opt.CrashRate {
					stats.Crashes++
					r.downUntil[i] = round + downRounds
				}
			}
		}
		// The active list: the nodes woken for this round, ascending,
		// less the down ones. A down node is not stepped and loses its
		// inbox; one that is not done stays awake for when it is up.
		active := r.active[:0]
		for w, word := range r.wake {
			r.wake[w] = 0
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if opt.CrashRate > 0 && r.downUntil[i] > round {
					// These deliveries were counted as Messages when they
					// entered the inbox but never reach the node: move
					// them to CrashLost so the balance stays exact.
					stats.CrashLost += int64(len(inboxes[i]))
					stats.Messages -= int64(len(inboxes[i]))
					inboxes[i] = inboxes[i][:0]
					if !done[i] {
						r.wakeNext(i)
					}
					continue
				}
				active = append(active, i)
			}
		}
		r.active = active

		outs := r.banks[round&1]
		for _, i := range active {
			outs[i] = Payload{}
		}
		if err := step(round, active, inboxes, outs, done); err != nil {
			return stats, err
		}

		// Deliver. The inboxes the last delivery filled are emptied, then
		// refilled — due delayed messages first (in postponement order),
		// then this round's sends. Sends are appended in ascending sender
		// order (a duplicate right after its original), so an inbox is
		// already sorted by sender unless a due delayed message went in
		// ahead of them; only such a round stable-sorts. A stable sort by
		// a key has exactly one result, so every driver sees the
		// identical input order.
		sent, resort := false, false
		for _, i := range r.recipients {
			inboxes[i] = inboxes[i][:0]
		}
		r.recipients = r.recipients[:0]
		if len(r.pending) > 0 {
			kept, due := r.pending[:0], r.due[:0]
			for _, d := range r.pending {
				if d.due > round+1 {
					kept = append(kept, d)
				} else {
					due = append(due, d)
				}
			}
			r.pending, r.due = kept, due
			for k := range due {
				r.deliver(due[k].to, Message{From: due[k].from, Payload: &due[k].payload})
			}
			if len(due) > 0 {
				stats.Messages += int64(len(due))
				// A due delayed delivery is traffic: the session must run
				// one more round so its destination consumes it, even if
				// no node broadcast this round.
				sent, resort = true, true
			}
		}
		for _, from := range active {
			if !done[from] {
				r.wakeNext(from)
			}
			payload := &outs[from]
			if payload.Silent() {
				continue
			}
			sent = true
			if opt.Rng == nil {
				// A failure-free round: every link delivers exactly once.
				for _, to := range neighbors[from] {
					r.deliver(to, Message{From: from, Payload: payload})
				}
				stats.Attempted += int64(len(neighbors[from]))
				stats.Messages += int64(len(neighbors[from]))
				continue
			}
			for _, to := range neighbors[from] {
				stats.Attempted++
				deliveries := 1
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
				for d := 0; d < deliveries; d++ {
					if opt.DelayRate > 0 && opt.Rng.Float64() < opt.DelayRate {
						stats.Delayed++
						// An undelayed send is consumed in round+1; a delay
						// of d ∈ [1, maxDelay] rounds pushes that to
						// round+1+d.
						r.pending = append(r.pending, delayedMsg{
							due:     round + 2 + opt.Rng.Intn(maxDelay),
							to:      to,
							from:    from,
							payload: *payload,
						})
						continue
					}
					r.deliver(to, Message{From: from, Payload: payload})
					stats.Messages++
				}
			}
		}
		if resort {
			for _, i := range r.recipients {
				slices.SortStableFunc(inboxes[i], bySender)
			}
		}
		if !sent && len(r.pending) == 0 {
			return stats, nil
		}
	}
	// The final round's deliveries were counted as Messages but no node
	// will consume them: like the in-flight delayed ones, they expire.
	for _, i := range r.recipients {
		stats.Messages -= int64(len(inboxes[i]))
		stats.Expired += int64(len(inboxes[i]))
	}
	stats.Expired += int64(len(r.pending))
	return stats, ErrNoQuiescence
}

// ValidateTopology checks that the neighbor relation is symmetric,
// irreflexive and in range.
func ValidateTopology(neighbors [][]int) error {
	n := len(neighbors)
	for i, ns := range neighbors {
		for _, j := range ns {
			if j < 0 || j >= n {
				return errors.New("netsim: neighbor index out of range")
			}
			if j == i {
				return errors.New("netsim: self-loop in topology")
			}
			if !slices.Contains(neighbors[j], i) {
				return errors.New("netsim: asymmetric neighbor relation")
			}
		}
	}
	return nil
}
