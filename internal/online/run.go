package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"haste/internal/core"
	"haste/internal/model"
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
	tau := in.Params.Tau
	K := p.K

	orient := make([][]float64, len(in.Chargers))
	for i := range orient {
		orient[i] = make([]float64, K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}

	g := newNegotiator(p, opt)
	defer func() {
		if cerr := g.close(); cerr != nil && err == nil {
			res, err = Result{}, fmt.Errorf("online: closing driver: %w", cerr)
		}
	}()
	var stats Stats
	slots, arrivals := arrivalBatches(in)
	for _, t := range slots {
		g.learn(arrivals[t])
		lockUntil := min(t+tau, K)
		if g.maxEnd <= lockUntil {
			stats.Negotiations = append(stats.Negotiations, NegotiationStats{
				Slot: t, NewTasks: len(arrivals[t]),
			})
			continue
		}

		// negotiate installs the new plan over the renegotiated horizon.
		neg, err := g.negotiate(orient, t, lockUntil)
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
	}

	return Result{
		Orientations: orient,
		Outcome:      sim.ExecuteOrientations(p, orient),
		Stats:        stats,
	}, nil
}

// arrivalBatches groups the tasks by release slot: slots ascending, and
// the IDs released at each.
func arrivalBatches(in *model.Instance) ([]int, map[int][]int) {
	arrivals := map[int][]int{}
	for _, t := range in.Tasks {
		arrivals[t.Release] = append(arrivals[t.Release], t.ID)
	}
	slots := make([]int, 0, len(arrivals))
	for s := range arrivals {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots, arrivals
}

// negotiator is a run's negotiation state: one agent per charger, the
// substrate carrying their messages, and what the chargers know. Each
// arrival-triggered negotiation resets the same agents.
type negotiator struct {
	p      *core.Problem
	opt    Options
	agents []agent
	nodes  []netsim.Node // &agents[i], as the driver steps them
	driver netsim.Driver // built at the first negotiation, Reset for each later one
	known  []bool        // known[j]: task j has arrived
	maxEnd int           // latest End over the known tasks
	energy []float64     // perceivedEnergies' output, per task
	rng    *rand.Rand    // final color sampling when Colors > 1

	neighbors *neighborRelation // over the known tasks; the session topology

	// perceivedEnergies' per-charger scratch.
	reach   []core.CoverEntry
	covered []bool
}

// newNegotiator returns the negotiation state of a run of p under the
// normalized options opt. Its agents stay zero until the first
// negotiation resets them.
func newNegotiator(p *core.Problem, opt Options) *negotiator {
	n := len(p.In.Chargers)
	g := &negotiator{
		p:         p,
		opt:       opt,
		agents:    make([]agent, n),
		nodes:     make([]netsim.Node, n),
		known:     make([]bool, len(p.In.Tasks)),
		energy:    make([]float64, len(p.In.Tasks)),
		neighbors: newNeighborRelation(p),
	}
	for i := range g.agents {
		g.nodes[i] = &g.agents[i]
	}
	if opt.Colors > 1 {
		g.rng = rand.New(rand.NewSource(0))
	}
	return g
}

// learn makes an arrival batch known, growing the neighbor relation.
func (g *negotiator) learn(batch []int) {
	for _, j := range batch {
		g.known[j] = true
		g.maxEnd = max(g.maxEnd, g.p.In.Tasks[j].End)
	}
	g.neighbors.add(batch)
}

// close closes the driver if one was built.
func (g *negotiator) close() error {
	if g.driver == nil {
		return nil
	}
	return g.driver.Close()
}

// negotiation is the outcome of one arrival-triggered renegotiation.
type negotiation struct {
	NegotiationStats
	net            netsim.Stats
	nonQuiescent   int   // sessions that hit MaxRounds
	unackedCommits int   // commits whose ack ledger was non-empty at session end
	retransmits    int64 // reliability-layer UPD re-broadcasts
}

// prepare resets every agent for the negotiation of the window
// [lockUntil, maxEnd) over the known tasks and returns the session
// topology, whose rows the next arrival batch may grow.
func (g *negotiator) prepare(orient [][]float64, lockUntil int) [][]int {
	g.perceivedEnergies(orient, lockUntil)
	neighbors := g.neighbors.rows
	for i := range g.agents {
		g.agents[i].reset(i, g.p, g.opt, g.known, g.energy, neighbors[i], lockUntil, g.maxEnd)
	}
	return neighbors
}

// negotiate runs the full Algorithm 3 loop (slots outer, colors inner)
// over the network of agents and writes their sampled plans into
// orient[i][lockUntil:maxEnd]. The substrate (in-memory engine or a
// real-socket driver from opt.Driver) is the run's one driver: negotiate
// builds it at the first negotiation and Resets it to this one's
// topology and options otherwise. Only substrate failures are errors —
// non-quiescence is degradation.
func (g *negotiator) negotiate(orient [][]float64, now, lockUntil int) (negotiation, error) {
	opt := g.opt
	neighbors := g.prepare(orient, lockUntil)

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
	if g.driver == nil {
		factory := opt.Driver
		if factory == nil {
			factory = netsim.MemFactory
		}
		d, err := factory(neighbors, nopt)
		if err != nil {
			return negotiation{}, fmt.Errorf("building driver: %w", err)
		}
		g.driver = d
	} else if err := g.driver.Reset(neighbors, nopt); err != nil {
		return negotiation{}, fmt.Errorf("resetting driver: %w", err)
	}

	var out negotiation
	for k := lockUntil; k < g.maxEnd; k++ {
		for c := 0; c < opt.Colors; c++ {
			anyBid := false
			for i := range g.agents {
				a := &g.agents[i]
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
			st, err := g.driver.Run(g.nodes)
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
			for i := range g.agents {
				if g.agents[i].nUnacked > 0 {
					out.unackedCommits++
				}
			}
		}
	}

	for i := range g.agents {
		a := &g.agents[i]
		out.retransmits += a.retransmits
		// Each agent's sampling RNG is seeded afresh, so skipping it
		// when there is a single color changes no draw.
		if g.rng != nil {
			g.rng.Seed(opt.Seed ^ int64(now)<<24 ^ int64(i)<<8)
		}
		a.finalPlan(g.rng, orient[i][lockUntil:g.maxEnd])
	}
	return out, nil
}

// perceivedEnergies computes into g.energy, with relaxed (full-slot)
// accounting, the energy each known task has harvested from the committed
// orientation timeline during slots [0, upTo) — the baseline every agent
// starts its local view from. Unknown tasks stay at zero: no agent can
// plan around energy it does not know was delivered.
func (g *negotiator) perceivedEnergies(orient [][]float64, upTo int) {
	p, in, e := g.p, g.p.In, g.energy
	clear(e)
	upTo = min(upTo, p.K)
	reach, covered := g.reach, g.covered // covered[r]: the current orientation covers reach[r]
	for i := range in.Chargers {
		// Only this charger's chargeable known tasks can ever receive
		// energy from it — read off the sparse charger row instead of
		// scanning every task.
		reach = reach[:0]
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && g.known[ent.Task] {
				reach = append(reach, ent)
			}
		}
		if len(reach) == 0 {
			continue
		}
		covered = slices.Grow(covered[:0], len(reach))[:len(reach)]
		cur := math.NaN()
		for k := 0; k < upTo; k++ {
			// Coverage changes only with the orientation.
			if o := orient[i][k]; !math.IsNaN(o) && math.Float64bits(o) != math.Float64bits(cur) {
				cur = o
				for r, ent := range reach {
					covered[r] = in.Params.Covers(in.Chargers[i], cur, in.Tasks[ent.Task])
				}
			}
			if math.IsNaN(cur) {
				continue
			}
			for r, ent := range reach {
				if covered[r] && in.Tasks[ent.Task].ActiveAt(k) {
					e[ent.Task] += ent.De
				}
			}
		}
	}
	g.reach, g.covered = reach, covered
}

// neighborRelation is a run's charger neighbor relation over the known
// tasks: two chargers are neighbors iff they share a known task that
// harvests energy from both. The relation only grows as tasks arrive, so
// it is built once per run and each arrival batch inserts into the rows
// its tasks touch.
type neighborRelation struct {
	// byTask[start[j]:start[j+1]] lists the chargers that can deliver
	// energy to task j, ascending: the sparse rows inverted once.
	start, byTask []int
	// rows[i] is charger i's neighbors, sorted, without i itself. Each
	// row is carved off one array with room for every neighbor it can
	// ever have, so growing it never allocates.
	rows [][]int
}

// newNeighborRelation inverts p's sparse charger rows into per-task
// charger lists, sizes each charger's row for the relation over every
// task and returns the relation with no task known.
func newNeighborRelation(p *core.Problem) *neighborRelation {
	n, m := len(p.In.Chargers), len(p.In.Tasks)
	nr := &neighborRelation{start: make([]int, m+1), rows: make([][]int, n)}
	for i := 0; i < n; i++ {
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 {
				nr.start[ent.Task+1]++
			}
		}
	}
	for j := 0; j < m; j++ {
		nr.start[j+1] += nr.start[j]
	}
	nr.byTask = make([]int, nr.start[m])
	fill := slices.Clone(nr.start[:m])
	for i := 0; i < n; i++ {
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 {
				nr.byTask[fill[ent.Task]] = i
				fill[ent.Task]++
			}
		}
	}
	// degree[i] counts the chargers sharing some task with charger i:
	// seen[c] == i+1 marks charger c as counted for i.
	degree, seen := make([]int, n), make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		for _, ent := range p.ChargerRow(i) {
			if ent.De <= 0 {
				continue
			}
			for _, c := range nr.byTask[nr.start[ent.Task]:nr.start[ent.Task+1]] {
				if c != i && seen[c] != i+1 {
					seen[c] = i + 1
					degree[i]++
				}
			}
		}
		total += degree[i]
	}
	flat := make([]int, total)
	for i, d := range degree {
		nr.rows[i], flat = flat[:0:d], flat[d:]
	}
	return nr
}

// add makes the batch's tasks known: each one's chargers become pairwise
// neighbors, inserted in order into the rows of those chargers only.
func (nr *neighborRelation) add(batch []int) {
	for _, j := range batch {
		cs := nr.byTask[nr.start[j]:nr.start[j+1]]
		for _, a := range cs {
			row := nr.rows[a]
			for _, b := range cs {
				if b == a {
					continue
				}
				if k, found := slices.BinarySearch(row, b); !found {
					row = slices.Insert(row, k, b)
				}
			}
			nr.rows[a] = row
		}
	}
}
