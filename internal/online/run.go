package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/sim"
)

// Options configures a distributed online run.
type Options struct {
	// Colors is the TabularGreedy control parameter C (default 1).
	Colors int
	// Samples is the number of Monte-Carlo color vectors when Colors > 1
	// (default 8·Colors, forced to 1 when Colors == 1).
	Samples int
	// Seed drives the shared color hash and the final per-agent color
	// sampling; runs with equal seeds are identical.
	Seed int64
	// DropRate / DupRate inject message loss and duplication into the
	// negotiation (see package netsim). The protocol degrades gracefully:
	// sessions still terminate, utility may drop.
	DropRate, DupRate float64
	// DelayRate / CrashRate inject bounded message delay (with reordering)
	// and node crash/restart outages (see package netsim).
	DelayRate, CrashRate float64
	// Driver, when non-nil, builds the execution substrate carrying the
	// negotiations' control messages — e.g. transport.Factory for
	// loopback-TCP sockets. Run calls it once, at its first negotiation,
	// Resets the driver for each later one and Closes it before
	// returning. Nil selects the in-memory netsim engine. The
	// protocol's behaviour is substrate-invariant: every driver must
	// commit bit-identical schedules with exactly reconciled Stats
	// (difftest.DriverSweep is the enforcement).
	Driver netsim.Factory
	// Reliable turns on the commit-reliability layer: sequence-numbered
	// UPDs, per-neighbor acks, and a bounded-retransmit session epilogue,
	// so a lost commit is re-announced instead of silently diverging the
	// neighbors' energy views. Failure-free runs commit the same tuples
	// with or without it; the acks and retransmissions cost messages.
	Reliable bool
	// RetryBudget caps per-commit retransmissions (default 6 when
	// Reliable).
	RetryBudget int
	// MaxRounds caps each negotiation session's rounds (default: the
	// netsim default). A session that hits the cap is recorded in
	// Stats.NonQuiescentSessions; mainly a chaos-testing knob.
	MaxRounds int
}

func (o Options) normalize() Options {
	if o.Colors < 1 {
		o.Colors = 1
	}
	if o.Colors == 1 {
		o.Samples = 1
	} else if o.Samples <= 0 {
		o.Samples = 8 * o.Colors
	}
	if o.Reliable && o.RetryBudget <= 0 {
		o.RetryBudget = 6
	}
	return o
}

// failureInjection reports whether any netsim failure mode is requested.
func (o Options) failureInjection() bool {
	return o.DropRate > 0 || o.DupRate > 0 || o.DelayRate > 0 || o.CrashRate > 0
}

// NegotiationStats describes one arrival-triggered renegotiation.
type NegotiationStats struct {
	Slot     int   // arrival slot that triggered it
	NewTasks int   // tasks that arrived
	Sessions int   // (slot, color) sessions that went past the quiescent round
	Messages int64 // control messages delivered
	Rounds   int   // negotiation rounds across executed sessions
}

// Stats aggregates a full run (the Fig. 16 quantities). The per-session
// totals reconcile exactly with the network-level ones: TotalMessages()
// == Net.Messages and TotalRounds() == Net.Rounds.
type Stats struct {
	Negotiations []NegotiationStats
	Net          netsim.Stats // network-level totals including failure injection

	// Degradation accounting under failure injection.
	NonQuiescentSessions int   // sessions that hit MaxRounds without quiescing
	UnackedCommits       int   // committed tuples some neighbor never acked (Reliable only)
	Retransmits          int64 // UPD re-broadcasts by the reliability layer
}

// TotalMessages sums control messages over all negotiations.
func (s Stats) TotalMessages() int64 {
	var t int64
	for _, n := range s.Negotiations {
		t += n.Messages
	}
	return t
}

// TotalRounds sums negotiation rounds over all negotiations.
func (s Stats) TotalRounds() int {
	t := 0
	for _, n := range s.Negotiations {
		t += n.Rounds
	}
	return t
}

// Result of a distributed online run.
type Result struct {
	// Orientations is the stitched orientation timeline the chargers
	// actually executed (NaN = no command, keep previous orientation).
	Orientations [][]float64
	// Outcome is the physical, switching-delay-aware result.
	Outcome sim.Outcome
	// Stats reports the communication cost.
	Stats Stats
}

// Run simulates the whole online scenario on problem p: tasks become
// known at their release slots; each arrival batch triggers a distributed
// renegotiation of all orientations from τ slots in the future; the
// resulting plan is executed physically with switching delays. See the
// package comment for the protocol.
//
// With the default in-memory substrate Run cannot fail; a non-nil error
// reports a broken Options.Driver substrate (listen/dial failure, a link
// dying mid-session, coordinator cancellation, a failed Close) — injected
// message loss is never an error, it is degradation accounted in Stats.
func Run(p *core.Problem, opt Options) (res Result, err error) {
	opt = opt.normalize()
	in := p.In
	n := len(in.Chargers)
	tau := in.Params.Tau
	K := p.K

	orient := make([][]float64, n)
	for i := range orient {
		orient[i] = make([]float64, K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}

	// Group arrivals by release slot.
	arrivals := map[int][]int{}
	for _, t := range in.Tasks {
		arrivals[t.Release] = append(arrivals[t.Release], t.ID)
	}
	slots := make([]int, 0, len(arrivals))
	for s := range arrivals {
		slots = append(slots, s)
	}
	sort.Ints(slots)

	var stats Stats
	var known []int
	var driver netsim.Driver // built at the first negotiation, Reset for each later one
	defer func() {
		if driver == nil {
			return
		}
		if cerr := driver.Close(); cerr != nil && err == nil {
			res, err = Result{}, fmt.Errorf("online: closing driver: %w", cerr)
		}
	}()
	for _, t := range slots {
		known = append(known, arrivals[t]...)
		sort.Ints(known)

		lockUntil := t + tau
		if lockUntil > K {
			lockUntil = K
		}
		maxEnd := 0
		for _, j := range known {
			if in.Tasks[j].End > maxEnd {
				maxEnd = in.Tasks[j].End
			}
		}
		if maxEnd <= lockUntil {
			stats.Negotiations = append(stats.Negotiations, NegotiationStats{
				Slot: t, NewTasks: len(arrivals[t]),
			})
			continue
		}

		neg, err := negotiate(p, opt, &driver, known, orient, t, lockUntil, maxEnd)
		if err != nil {
			return Result{}, fmt.Errorf("online: negotiation at slot %d: %w", t, err)
		}
		neg.Slot = t
		neg.NewTasks = len(arrivals[t])
		stats.Negotiations = append(stats.Negotiations, neg.NegotiationStats)
		stats.Net.Add(neg.net)
		stats.NonQuiescentSessions += neg.nonQuiescent
		stats.UnackedCommits += neg.unackedCommits
		stats.Retransmits += neg.retransmits

		// Install the new plan over the renegotiated horizon.
		for i := 0; i < n; i++ {
			copy(orient[i][lockUntil:maxEnd], neg.plans[i])
		}
	}

	return Result{
		Orientations: orient,
		Outcome:      sim.ExecuteOrientations(p, orient),
		Stats:        stats,
	}, nil
}

// negotiation is the outcome of one arrival-triggered renegotiation.
type negotiation struct {
	NegotiationStats
	net            netsim.Stats
	nonQuiescent   int         // sessions that hit MaxRounds
	unackedCommits int         // commits whose ack ledger was non-empty at session end
	retransmits    int64       // reliability-layer UPD re-broadcasts
	plans          [][]float64 // per charger, orientation commands for [lockUntil, maxEnd)
	agents         []*agent    // retained for white-box consistency tests
}

// negotiate runs the full Algorithm 3 loop (slots outer, colors inner)
// over the network of agents and returns their sampled plans. The
// substrate (in-memory engine or a real-socket driver from opt.Driver) is
// the run's one *driver: negotiate builds it when it is nil and Resets it
// to this negotiation's topology and options otherwise, and the caller
// closes it. Only substrate failures are errors — non-quiescence is
// degradation.
func negotiate(p *core.Problem, opt Options, driver *netsim.Driver, known []int, orient [][]float64, now, lockUntil, maxEnd int) (negotiation, error) {
	in := p.In
	n := len(in.Chargers)

	baseline := perceivedEnergies(p, orient, known, lockUntil)
	neighbors := knownNeighbors(p, known)
	agents := make([]*agent, n)
	nodes := make([]netsim.Node, n)
	// Γ_i is extracted from charger i's own known tasks, not from all of
	// them; one buffer holds each charger's list in turn.
	candidates := make([]int, 0, len(known))
	for i := 0; i < n; i++ {
		candidates = knownRow(candidates[:0], known, p.ChargerRow(i))
		agents[i] = newAgent(i, p, opt, candidates, baseline, neighbors[i], lockUntil, maxEnd)
		nodes[i] = agents[i]
	}

	nopt := netsim.Options{
		DropRate:  opt.DropRate,
		DupRate:   opt.DupRate,
		DelayRate: opt.DelayRate,
		CrashRate: opt.CrashRate,
		MaxRounds: opt.MaxRounds,
	}
	if opt.failureInjection() {
		nopt.Rng = rand.New(rand.NewSource(opt.Seed ^ int64(now)<<20))
	}
	if *driver == nil {
		factory := opt.Driver
		if factory == nil {
			factory = netsim.MemFactory
		}
		d, err := factory(neighbors, nopt)
		if err != nil {
			return negotiation{}, fmt.Errorf("building driver: %w", err)
		}
		*driver = d
	} else if err := (*driver).Reset(neighbors, nopt); err != nil {
		return negotiation{}, fmt.Errorf("resetting driver: %w", err)
	}

	var out negotiation
	for k := lockUntil; k < maxEnd; k++ {
		for c := 0; c < opt.Colors; c++ {
			anyBid := false
			for _, a := range agents {
				a.startSession(k, c)
				if a.myBid > 1e-15 {
					anyBid = true
				}
			}
			if !anyBid {
				// Nobody has anything to gain at this (slot, color):
				// the session would be a single silent round.
				continue
			}
			st, err := (*driver).Run(nodes)
			out.net.Add(st)
			if err != nil {
				if !errors.Is(err, netsim.ErrNoQuiescence) {
					// The substrate itself failed (a link died, the
					// coordinator was cancelled): the session outcome is
					// undefined, abort the negotiation.
					return out, fmt.Errorf("session (slot %d, color %d): %w", k, c, err)
				}
				// MaxRounds tripped (only possible under extreme failure
				// injection); keep whatever was committed so far, but
				// account for the degradation instead of hiding it.
				out.nonQuiescent++
			}
			// Account every session the engine actually ran, so the
			// per-negotiation totals reconcile exactly with Stats.Net.
			// Sessions counts those that went past the single quiescent
			// round: a lone bidder with no neighbors still bids, commits
			// and burns rounds, so gating on delivered messages would
			// undercount (only a fully crash-silenced session stays at
			// one round).
			out.Messages += st.Messages
			out.Rounds += st.Rounds
			if st.Rounds > 1 {
				out.Sessions++
			}
			for _, a := range agents {
				if a.nUnacked > 0 {
					out.unackedCommits++
				}
			}
		}
	}

	for _, a := range agents {
		out.retransmits += a.retransmits
	}
	out.agents = agents
	out.plans = make([][]float64, n)
	for i, a := range agents {
		// Each agent's sampling RNG is private and discarded after use,
		// so skipping it when there is a single color changes no draw.
		var rng *rand.Rand
		if opt.Colors > 1 {
			rng = rand.New(rand.NewSource(opt.Seed ^ int64(now)<<24 ^ int64(i)<<8))
		}
		out.plans[i] = a.finalPlan(rng)
	}
	return out, nil
}

// perceivedEnergies computes, with relaxed (full-slot) accounting, the
// energy each known task has harvested from the committed orientation
// timeline during slots [0, upTo) — the baseline every agent starts its
// local view from. Unknown tasks stay at zero: no agent can plan around
// energy it does not know was delivered.
func perceivedEnergies(p *core.Problem, orient [][]float64, known []int, upTo int) []float64 {
	in := p.In
	e := make([]float64, len(in.Tasks))
	if upTo > p.K {
		upTo = p.K
	}
	isKnown := make([]bool, len(in.Tasks))
	for _, j := range known {
		isKnown[j] = true
	}
	var reach []core.CoverEntry
	for i := range in.Chargers {
		// Only this charger's chargeable known tasks can ever receive
		// energy from it — read off the sparse charger row instead of
		// scanning every task.
		reach = reach[:0]
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && isKnown[ent.Task] {
				reach = append(reach, ent)
			}
		}
		if len(reach) == 0 {
			continue
		}
		cur := math.NaN()
		for k := 0; k < upTo; k++ {
			if k < len(orient[i]) && !math.IsNaN(orient[i][k]) {
				cur = orient[i][k]
			}
			if math.IsNaN(cur) {
				continue
			}
			for _, ent := range reach {
				j := int(ent.Task)
				if in.Tasks[j].ActiveAt(k) && in.Params.Covers(in.Chargers[i], cur, in.Tasks[j]) {
					e[j] += ent.De
				}
			}
		}
	}
	return e
}

// knownRow appends to dst the known tasks in a charger's sparse row — the
// known tasks it can charge, ascending — by a two-pointer merge of the two
// ascending lists.
func knownRow(dst, known []int, row []core.CoverEntry) []int {
	r := 0
	for _, j := range known {
		for r < len(row) && int(row[r].Task) < j {
			r++
		}
		if r == len(row) {
			break
		}
		if int(row[r].Task) == j {
			dst = append(dst, j)
		}
	}
	return dst
}

// knownNeighbors builds the neighbor relation over known tasks only: two
// chargers are neighbors iff they share a known chargeable task. Each row
// is the sorted, deduplicated union of the charger lists of its known
// tasks, minus the charger itself; all rows share one backing array.
func knownNeighbors(p *core.Problem, known []int) [][]int {
	in := p.In
	n := len(in.Chargers)
	isKnown := make([]bool, len(in.Tasks))
	for _, j := range known {
		isKnown[j] = true
	}
	// Invert the sparse rows once, counting then filling:
	// byTask[start[j]:start[j+1]] lists the chargers that can deliver
	// energy to known task j, ascending since chargers are walked in order.
	start := make([]int, len(in.Tasks)+1)
	for i := 0; i < n; i++ {
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && isKnown[ent.Task] {
				start[ent.Task+1]++
			}
		}
	}
	for j := range in.Tasks {
		start[j+1] += start[j]
	}
	byTask := make([]int, start[len(in.Tasks)])
	fill := slices.Clone(start)
	for i := 0; i < n; i++ {
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && isKnown[ent.Task] {
				byTask[fill[ent.Task]] = i
				fill[ent.Task]++
			}
		}
	}
	// Row i gathers d_j entries for each of its known tasks j, d_j being
	// task j's charger count, so sum_j d_j² entries hold every row before
	// deduplication and flat never reallocates under the rows carved off it.
	size := 0
	for j := range in.Tasks {
		d := start[j+1] - start[j]
		size += d * d
	}
	flat := make([]int, 0, size)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		lo := len(flat)
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && isKnown[ent.Task] {
				flat = append(flat, byTask[start[ent.Task]:start[ent.Task+1]]...)
			}
		}
		row := flat[lo:]
		slices.Sort(row)
		row = slices.Compact(row)
		if k, self := slices.BinarySearch(row, i); self {
			row = slices.Delete(row, k, k+1)
		}
		flat = flat[:lo+len(row)]
		if len(row) > 0 {
			out[i] = row[:len(row):len(row)]
		}
	}
	return out
}
