// Package online implements Algorithm 3: the distributed online algorithm
// for HASTE. Each wireless charger runs an agent that, whenever new
// charging tasks arrive, renegotiates its future orientations with its
// neighbors (chargers sharing at least one known chargeable task) through
// the control-message protocol of the paper:
//
//	msg(ID, TIM, COL, CMD, ΔF_i^{k*}(Q_i), e_i^{k*})
//
// For every future time slot k and color c, agents repeatedly broadcast
// their best marginal gain ΔF; the agent whose bid beats every competing
// neighbor (ties broken by charger ID, as in the paper) commits the
// corresponding dominant-set policy as an S-C tuple, announces it with an
// UPD message, and its neighbors fold the committed contribution into
// their local energy views and rebid. The negotiation for one (k,c) pair
// ends when nobody has a positive marginal left. Afterwards every agent
// samples one color per slot to obtain its scheduling policy X_i, exactly
// as the centralized TabularGreedy does per partition.
//
// Agents only ever use local knowledge: tasks they have seen arrive, their
// own dominant sets over those tasks, and the policies their neighbors
// announced. The rescheduling delay τ is honored by the driver in run.go —
// a negotiation triggered at slot t can only change orientations from slot
// t+τ on.
//
// # Reliability layer
//
// The competitive-ratio argument assumes every committed S-C tuple reaches
// every neighbor; a dropped UPD permanently diverges the loser's energy
// view. With Options.Reliable, UPD commits become reliable within a
// session: every UPD carries a per-agent sequence number, receivers
// acknowledge every receipt (re-acking retransmissions, since the ack
// itself can be lost), and a committed agent re-broadcasts its final tuple
// every round until all neighbors have acked or a retry budget is
// exhausted. Applying a commit is idempotent
// (deduplicated per session by sender), so retransmissions and duplicated
// deliveries never double-count energy. The layer is a set of optional
// parts of the agent's one Step, not a second protocol. On a failure-free
// network the reliable protocol commits exactly the same tuples as the
// base protocol. The extra traffic is the acks plus one re-broadcast of
// each commit: the epilogue runs every round, so it re-sends a commit
// once before its acks can arrive.
package online

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/netsim"
)

// retryBudget caps the reliability layer's retransmissions of one commit.
const retryBudget = 6

// agentPhase tracks the bid/decide alternation within a session.
type agentPhase int

const (
	phaseBid agentPhase = iota
	phaseDecide
)

// agent is one charger's negotiation process for a whole online run:
// Run keeps one per charger and resets it for each arrival-triggered
// renegotiation (all sessions of all future slots and colors). Everything
// it holds about tasks is indexed by position in its own sparse row
// p.ChargerRow(id), which is fixed for the run, so an agent costs its row
// and never the whole field.
type agent struct {
	id      int
	p       *core.Problem
	colors  int
	samples int
	seed    int64

	reliable  bool  // Options.Reliable: the commit-reliability layer
	neighbors []int // session-topology neighbors, for the ack ledger

	row []core.CoverEntry // p.ChargerRow(id); "row task r" is row[r]

	// known[r]: row task r has arrived. candidates lists the known row
	// tasks' IDs, ascending: the set Γ_i is extracted from.
	known      []bool
	candidates []int

	policies []dominant.Policy // Γ_i over candidates

	// polCovers[polOff[pol]:polOff[pol+1]] lists policy pol's covers with
	// positive per-slot energy, in Covers order; built once per
	// extraction.
	polCovers []taskEnergy
	polOff    []int

	// energy[s][r]: sample s's view of row task r's accumulated energy,
	// built from this agent's own commitments and neighbors' UPD messages
	// plus the locked-prefix baseline.
	energy [][]float64

	// q[(k-lo)*colors+c]: committed policy index into policies for slot k
	// of the renegotiated window [lo, hi) and color c, -1 if none. Empty
	// until the negotiation's first commit.
	q      []int
	lo, hi int

	// Per-session state.
	session      uint32 // sessions started in the run, the applied stamp
	sessionSlot  int
	sessionColor int
	phase        agentPhase
	fixed        bool
	passed       bool
	myBid        float64
	myPol        int
	// viewChanged: applyCommit changed the energy view since the last
	// recompute, so (myPol, myBid) may be stale. A bid round recomputes
	// only then: the same view gives the same bid.
	viewChanged bool

	// applied[nb] == session: the commit of neighbors[nb] in this session
	// is folded in.
	applied []uint32

	// Reliability per-session state.
	unacked     []bool // unacked[nb]: neighbors[nb] has not acked my commit yet
	nUnacked    int    // true entries of unacked; 0 until the session's commit
	retriesLeft int    // retransmissions left for my commit

	// acks backs the Acks of every payload this session sent: each round
	// appends its acks and sends them as a full slice expression, so a
	// later append never writes into a sent slice. startSession reuses
	// the buffer, which is sound because the round loop drops pending
	// deliveries at session start and the TCP node server encodes a
	// payload before the next step.
	acks []netsim.Ack

	// Reliability accounting across the whole renegotiation.
	updSeq      uint32 // sequence number of my last commit
	retransmits int64  // UPD re-broadcasts sent

	// active[k-lo] counts the known row tasks with energy that are active
	// in slot k of the window, so startSession tells a slot with nothing
	// to bid for in O(1).
	active []int32

	// sessionCovers[sessionOff[pol]:sessionOff[pol+1]] are the entries of
	// policy pol's polCovers active in the session slot, so the per-round
	// rebids only walk live tasks. Both are empty in a session whose slot
	// has no active known row task.
	sessionCovers []taskEnergy
	sessionOff    []int
	// sessionSamples lists the samples whose color for (id, slot) equals
	// the session color.
	sessionSamples []int
	// commit holds, while applyCommit runs, the committed row tasks active
	// in the session slot.
	commit []taskEnergy
}

// taskEnergy pairs a row task (its ID and its row-local index) with the
// energy it harvests per fully covered slot.
type taskEnergy struct {
	task, r int32
	de      float64
}

// reset arms the agent as charger id's for the negotiation of the window
// [lo, hi); a zero agent becomes one on its first reset, and every later
// reset names the same charger of the same problem. The agent learns
// the row tasks isKnown (indexed by task ID) marks and re-extracts Γ_i
// only when one of them is new to it, counts the known row tasks active
// in each slot of the window, reloads its energy view from the
// locked-prefix baseline energies (shared across samples: the locked past
// does not depend on colors) and clears its per-negotiation state.
// neighbors is the agent's row of the session topology, used by the
// reliability layer's ack ledger.
func (a *agent) reset(id int, p *core.Problem, opt Options, isKnown []bool, baseline []float64, neighbors []int, lo, hi int) {
	if a.p == nil {
		row := p.ChargerRow(id)
		*a = agent{id: id, p: p, row: row, known: make([]bool, len(row)), candidates: make([]int, 0, len(row))}
	}
	a.colors, a.samples, a.seed = opt.Colors, opt.Samples, opt.Seed
	a.reliable = opt.Reliable
	a.neighbors = neighbors
	// applied and unacked are indexed by position in neighbors. A stale
	// stamp names an earlier session, so applied needs no clearing.
	a.applied = slices.Grow(a.applied[:0], len(neighbors))[:len(neighbors)]
	a.unacked = slices.Grow(a.unacked[:0], len(neighbors))[:len(neighbors)]
	clear(a.unacked)
	a.nUnacked = 0
	a.lo, a.hi = lo, hi
	a.q = a.q[:0]
	a.updSeq, a.retransmits = 0, 0

	grew := false
	for r, ent := range a.row {
		if !a.known[r] && isKnown[ent.Task] {
			a.known[r] = true
			grew = true
		}
	}
	if grew || a.policies == nil {
		a.extract()
	}

	// A difference array over the window, then its prefix sums.
	w := max(hi-lo, 0)
	a.active = slices.Grow(a.active[:0], w+1)[:w+1]
	clear(a.active)
	for r, ent := range a.row {
		if !a.known[r] || ent.De <= 0 {
			continue
		}
		t := &p.In.Tasks[ent.Task]
		if from, to := max(t.Release, lo), min(t.End, hi); from < to {
			a.active[from-lo]++
			a.active[to-lo]--
		}
	}
	for k := 1; k < w; k++ {
		a.active[k] += a.active[k-1]
	}

	n := len(a.row)
	if len(a.energy) != a.samples {
		a.energy = make([][]float64, a.samples)
		flat := make([]float64, a.samples*n)
		for s := range a.energy {
			a.energy[s] = flat[s*n : (s+1)*n : (s+1)*n]
		}
	}
	for _, e := range a.energy {
		for r, ent := range a.row {
			e[r] = baseline[ent.Task]
		}
	}
}

// extract rebuilds Γ_i from the known row tasks, and each policy's list
// of (row task, per-slot energy) covers.
func (a *agent) extract() {
	a.candidates = a.candidates[:0]
	for r, ent := range a.row {
		if a.known[r] {
			a.candidates = append(a.candidates, int(ent.Task))
		}
	}
	a.policies = dominant.ExtractSubset(a.p.In, a.id, a.candidates)
	size := 0
	for _, pol := range a.policies {
		size += len(pol.Covers)
	}
	a.polCovers = slices.Grow(a.polCovers[:0], size)
	a.polOff = append(slices.Grow(a.polOff[:0], len(a.policies)+1), 0)
	for pol := range a.policies {
		// Every cover is in the row: both lists are ascending, so a
		// two-pointer merge replaces a binary search per cover.
		r := 0
		for _, j := range a.policies[pol].Covers {
			for r < len(a.row) && int(a.row[r].Task) < j {
				r++
			}
			if r == len(a.row) {
				break
			}
			if ent := a.row[r]; int(ent.Task) == j && ent.De > 0 {
				a.polCovers = append(a.polCovers, taskEnergy{ent.Task, int32(r), ent.De})
			}
		}
		a.polOff = append(a.polOff, len(a.polCovers))
	}
}

// startSession arms the agent for the (slot, color) negotiation.
func (a *agent) startSession(slot, color int) {
	a.session++
	a.sessionSlot = slot
	a.sessionColor = color
	a.phase = phaseBid
	a.fixed = false
	a.passed = false
	if a.nUnacked > 0 {
		clear(a.unacked)
		a.nUnacked = 0
	}
	a.acks = a.acks[:0]
	a.myPol, a.myBid, a.viewChanged = -1, 0, false

	a.sessionCovers = a.sessionCovers[:0]
	a.sessionOff = a.sessionOff[:0]
	a.sessionSamples = a.sessionSamples[:0]
	if a.active[slot-a.lo] == 0 {
		return // no policy covers a live task: every gain is 0
	}
	a.sessionCovers = slices.Grow(a.sessionCovers, len(a.polCovers))
	a.sessionOff = append(slices.Grow(a.sessionOff, len(a.policies)+1), 0)
	for pol := range a.policies {
		for _, te := range a.polCovers[a.polOff[pol]:a.polOff[pol+1]] {
			if a.p.In.Tasks[te.task].ActiveAt(slot) {
				a.sessionCovers = append(a.sessionCovers, te)
			}
		}
		a.sessionOff = append(a.sessionOff, len(a.sessionCovers))
	}
	for s := 0; s < a.samples; s++ {
		if colorAt(a.seed, s, a.id, slot, a.colors) == color {
			a.sessionSamples = append(a.sessionSamples, s)
		}
	}
	a.recompute()
}

// recompute refreshes the agent's best policy and marginal bid for the
// current session from its local energy view. With no live cover every
// gain is 0, which no policy beats.
func (a *agent) recompute() {
	a.myPol, a.myBid, a.viewChanged = -1, 0, false
	if len(a.sessionCovers) == 0 {
		return
	}
	for pol := range a.policies {
		if a.policies[pol].Idle {
			continue
		}
		gain := a.policyGain(pol)
		if gain > a.myBid {
			a.myBid, a.myPol = gain, pol
		}
	}
}

// policyGain sums the policy's marginal utility over the samples whose
// color for this agent's (slot) partition matches the session color.
func (a *agent) policyGain(pol int) float64 {
	var gain float64
	covers := a.sessionCovers[a.sessionOff[pol]:a.sessionOff[pol+1]]
	for _, s := range a.sessionSamples {
		energy := a.energy[s]
		for _, te := range covers {
			// WeightedDelta inlines the default linear-bounded utility
			// (bit-identical to the interface expression) when the flat
			// kernel is active, and falls back to it otherwise.
			gain += a.p.WeightedDelta(int(te.task), energy[te.r], te.de)
		}
	}
	return gain
}

// applyCommit folds charger from's session commit, covering covers
// (ascending, as every policy's are), into the matching samples of the
// local energy view. Covered tasks outside the agent's row are skipped:
// no gain of its ever reads them.
func (a *agent) applyCommit(from int, covers []int) {
	k := a.sessionSlot
	a.commit = slices.Grow(a.commit[:0], min(len(covers), len(a.row)))
	r := 0
	for _, j := range covers {
		for r < len(a.row) && int(a.row[r].Task) < j {
			r++
		}
		if r == len(a.row) {
			break
		}
		if int(a.row[r].Task) == j && a.p.In.Tasks[j].ActiveAt(k) {
			a.commit = append(a.commit, taskEnergy{int32(j), int32(r), a.p.SlotEnergy(from, j)})
		}
	}
	if len(a.commit) == 0 {
		return
	}
	for s := 0; s < a.samples; s++ {
		if colorAt(a.seed, s, from, k, a.colors) != a.sessionColor {
			continue
		}
		energy := a.energy[s]
		for _, te := range a.commit {
			energy[te.r] += te.de
		}
		a.viewChanged = true
	}
}

// applyOnce applies sender from's session commit unless it already is:
// each sender's commit is applied at most once per session, which makes
// duplicated, retransmitted and delay-reordered deliveries idempotent.
func (a *agent) applyOnce(from int, covers []int) {
	if nb := a.neighborIndex(from); a.applied[nb] != a.session {
		a.applied[nb] = a.session
		a.applyCommit(from, covers)
	}
}

// neighborIndex returns sender from's position in the agent's neighbor
// row. The round loop delivers only along the session topology, which is
// symmetric, so every sender is there.
func (a *agent) neighborIndex(from int) int {
	nb, ok := slices.BinarySearch(a.neighbors, from)
	if !ok {
		panic("online: message from a charger outside the session topology")
	}
	return nb
}

// ours reports whether (slot, color) names the running session.
func (a *agent) ours(slot, color uint32) bool {
	return int(slot) == a.sessionSlot && int(color) == a.sessionColor
}

// beatenBy reports whether m carries a bid for the running session that
// beats ours under the paper's rule, exact ties going to the lower
// charger ID.
func (a *agent) beatenBy(m netsim.Message) bool {
	p := m.Payload
	return p.HasBid && a.ours(p.Slot, p.Color) && (p.Delta > a.myBid || (p.Delta == a.myBid && m.From < a.id))
}

// Step implements netsim.Node for the current session, writing any
// broadcast into the silent out. A bid round folds in the UPDs of last
// round's winners and bids; a decide round commits iff our bid beats
// every competing neighbor's. Without the reliability layer that is the
// paper's best-effort protocol, in which a lost UPD silently diverges the
// loser's energy view. The layer folds in and acks UPDs in every round
// and re-broadcasts a commit until every neighbor acked it or the retry
// budget ran out.
func (a *agent) Step(inbox []netsim.Message, out *netsim.Payload) bool {
	sent := len(a.acks)
	// The paper's protocol folds in UPDs only in a bid round. With the
	// layer, delayed or retransmitted UPDs may arrive in a decide round
	// and must still be applied and (re-)acked, so it folds every round.
	if a.reliable || a.phase == phaseBid {
		for i := range inbox {
			from, pkt := inbox[i].From, inbox[i].Payload
			if pkt.HasUpd && a.ours(pkt.Slot, pkt.Color) {
				a.applyOnce(from, pkt.Covers)
				if a.reliable {
					// Ack every receipt: the previous ack may itself have
					// been lost, and retransmissions stop only on a
					// received ack.
					a.acks = append(a.acks, netsim.Ack{Slot: pkt.Slot, Color: pkt.Color, To: uint32(from), Seq: pkt.Seq})
				}
			}
			for _, ack := range pkt.Acks {
				if int(ack.To) == a.id && a.ours(ack.Slot, ack.Color) && a.fixed && ack.Seq == a.updSeq {
					if nb := a.neighborIndex(from); a.unacked[nb] {
						a.unacked[nb] = false
						a.nUnacked--
					}
				}
			}
		}
	}

	// A fixed or passed agent has no bid left. It stays in phaseBid, so
	// the paper's protocol keeps folding in later UPDs, and its step on
	// an empty inbox changes nothing.
	switch {
	case a.fixed || a.passed:
	case a.phase == phaseBid:
		if a.viewChanged {
			a.recompute()
		}
		if a.myBid <= 1e-15 {
			a.passed = true
		} else {
			a.phase = phaseDecide
			out.HasBid, out.Delta = true, a.myBid
		}

	default: // phaseDecide
		a.phase = phaseBid
		// Bids are read only in this decide round; a bid postponed by
		// delay injection past it is intentionally dropped (unlike UPDs
		// and acks, which the layer processes every round). Two agents
		// may then both conclude they won and commit overlapping tuples
		// — safe because applyCommit is idempotent and the divergence
		// only lowers utility, which is the documented degradation model
		// the chaos sweeps measure. Retransmitting bids would instead
		// stall every session for MaxDelay rounds. A loser still sends
		// the acks it owes.
		won := true
		for _, m := range inbox {
			if a.beatenBy(m) {
				won = false
				break
			}
		}
		if won {
			a.commitOwn()
			out.HasUpd = true
		}
	}

	// Session epilogue: while any neighbor has not acked the committed
	// tuple and budget remains, re-broadcast it. This runs every round —
	// the engine ends a session after one fully silent round, so an idle
	// wait for in-flight acks would let the session die under total loss.
	// A retransmission racing an in-flight ack is harmless: applying a
	// commit is idempotent and the re-ack it triggers carries no reply.
	// Without the layer nUnacked stays 0 and this does nothing.
	if !out.HasUpd && a.nUnacked > 0 && a.retriesLeft > 0 {
		a.retriesLeft--
		a.retransmits++
		out.HasUpd = true
	}

	if n := len(a.acks); n > sent {
		out.Acks = a.acks[sent:n:n]
	}
	if !out.Silent() {
		out.Slot, out.Color = uint32(a.sessionSlot), uint32(a.sessionColor)
		if out.HasUpd {
			out.Seq, out.Covers = a.updSeq, a.policies[a.myPol].Covers
		}
	}
	return a.passed || (a.fixed && a.nUnacked == 0)
}

// commitOwn fixes the winning policy as the S-C tuple for the session,
// numbers the commit, applies it to the agent's own matching samples and,
// with the reliability layer, arms the ack ledger and the retry budget.
func (a *agent) commitOwn() {
	a.fixed = true
	a.updSeq++
	if a.reliable {
		for nb := range a.unacked {
			a.unacked[nb] = true
		}
		a.nUnacked = len(a.unacked)
		a.retriesLeft = retryBudget
	}
	if len(a.q) == 0 {
		a.q = slices.Grow(a.q, (a.hi-a.lo)*a.colors)[:(a.hi-a.lo)*a.colors]
		for i := range a.q {
			a.q[i] = -1
		}
	}
	a.q[(a.sessionSlot-a.lo)*a.colors+a.sessionColor] = a.myPol
	a.applyCommit(a.id, a.policies[a.myPol].Covers)
}

// finalPlan samples one color per slot (lines 22–24 of Algorithm 3) and
// writes the agent's orientation commands for its window [lo, hi) into
// plan. Unassigned slots are NaN (keep the previous physical
// orientation). With one color there is nothing to sample and rng may be
// nil.
func (a *agent) finalPlan(rng *rand.Rand, plan []float64) {
	for i := range plan {
		plan[i] = math.NaN()
	}
	for i := 0; i < len(a.q)/a.colors; i++ {
		row := a.q[i*a.colors : (i+1)*a.colors]
		// Only a slot with a commit in some color draws a color.
		if !slices.ContainsFunc(row, func(pol int) bool { return pol >= 0 }) {
			continue
		}
		c := 0
		if a.colors > 1 {
			c = rng.Intn(a.colors)
		}
		if pol := row[c]; pol >= 0 {
			plan[i] = a.policies[pol].Orientation
		}
	}
}

// colorAt deterministically assigns sample s's color for partition (i,k).
// All agents share the seed, so everyone agrees on every partition's color
// vector without exchanging it — the distributed analogue of the common
// random numbers used by the centralized TabularGreedy.
func colorAt(seed int64, s, i, k, colors int) int {
	if colors <= 1 {
		return 0
	}
	x := uint64(seed) ^ uint64(s)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(k)*0x94d049bb133111eb
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Multiply-shift (Lemire) reduction onto [0, colors): x % colors
	// over-weights the first 2^64 mod colors residues for
	// non-power-of-two color counts.
	hi, _ := bits.Mul64(x, uint64(colors))
	return int(hi)
}
