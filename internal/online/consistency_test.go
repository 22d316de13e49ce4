package online

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/netsim"
	"haste/internal/workload"
)

// White-box distributed-consistency tests: after a full negotiation, every
// agent's local energy view must agree with its neighbors' on shared tasks
// and with an independent global recomputation of all committed tuples —
// the property that makes the local marginal ΔF_i equal to the global one
// (the key step in the proof of Theorem 6.1).

func negotiatedAgents(t *testing.T, seed int64, colors int) (*core.Problem, *negotiator) {
	t.Helper()
	cfg := workload.SmallScale()
	cfg.NumChargers, cfg.NumTasks = 6, 14
	cfg.FieldSide = 14
	cfg.ReleaseMax = 0 // single negotiation covering everything
	cfg.Params.Tau = 0
	cfg.Params.ReceiveAngle = geom.Deg(150)
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	g := newNegotiator(p, Options{Colors: colors, Seed: seed}.normalize())
	defer g.close()
	g.learn(allIDs(p))
	if _, err := g.negotiate(nanOrient(p), 0, 0); err != nil {
		t.Fatalf("negotiate: %v", err)
	}
	return p, g
}

// energyOf reads sample s's view of task j, which must be in the agent's
// row.
func (a *agent) energyOf(s, j int) float64 {
	r, ok := slices.BinarySearchFunc(a.row, j, func(e core.CoverEntry, j int) int { return cmp.Compare(int(e.Task), j) })
	if !ok {
		panic("energyOf: task outside the agent's row")
	}
	return a.energy[s][r]
}

func nanOrient(p *core.Problem) [][]float64 {
	orient := make([][]float64, len(p.In.Chargers))
	for i := range orient {
		orient[i] = make([]float64, p.K)
		for k := range orient[i] {
			orient[i][k] = math.NaN()
		}
	}
	return orient
}

func TestNeighborEnergyViewsAgree(t *testing.T) {
	for _, colors := range []int{1, 3} {
		p, g := negotiatedAgents(t, 17, colors)
		for i := range g.agents {
			a := &g.agents[i]
			for _, nb := range a.neighbors {
				b := &g.agents[nb]
				for s := 0; s < a.samples && s < b.samples; s++ {
					for j := range p.In.Tasks {
						// Shared task: both can charge it.
						if p.SlotEnergy(i, j) == 0 || p.SlotEnergy(nb, j) == 0 {
							continue
						}
						if ea, eb := a.energyOf(s, j), b.energyOf(s, j); math.Abs(ea-eb) > 1e-9 {
							t.Fatalf("C=%d: agents %d and %d disagree on task %d sample %d: %v vs %v",
								colors, i, nb, j, s, ea, eb)
						}
					}
				}
			}
		}
	}
}

// Each agent's energy view must equal the global recomputation of every
// committed (charger, slot, color) tuple, restricted to the tasks the
// agent can observe (its own chargeable tasks).
func TestAgentViewsMatchGlobalRecomputation(t *testing.T) {
	for _, colors := range []int{1, 2} {
		p, g := negotiatedAgents(t, 23, colors)
		samples := g.agents[0].samples

		// Global truth: accumulate every agent's committed tuples.
		truth := make([][]float64, samples)
		for s := range truth {
			truth[s] = make([]float64, len(p.In.Tasks))
		}
		for i := range g.agents {
			a := &g.agents[i]
			for idx, pol := range a.q {
				if pol < 0 {
					continue
				}
				k, c := a.lo+idx/a.colors, idx%a.colors
				for s := 0; s < samples; s++ {
					if colorAt(a.seed, s, i, k, a.colors) != c {
						continue
					}
					for _, j := range a.policies[pol].Covers {
						if p.In.Tasks[j].ActiveAt(k) {
							truth[s][j] += p.SlotEnergy(i, j)
						}
					}
				}
			}
		}
		for i := range g.agents {
			a := &g.agents[i]
			for s := 0; s < samples; s++ {
				for j := range p.In.Tasks {
					if p.SlotEnergy(i, j) == 0 {
						continue // agent cannot observe this task
					}
					if e := a.energyOf(s, j); math.Abs(e-truth[s][j]) > 1e-9 {
						t.Fatalf("C=%d: agent %d task %d sample %d: local %v != global %v",
							colors, i, j, s, e, truth[s][j])
					}
				}
			}
		}
	}
}

// The matroid constraint at the distributed level: each agent commits at
// most one policy per (slot, color).
func TestAgentsRespectPartitionMatroid(t *testing.T) {
	p, g := negotiatedAgents(t, 31, 3)
	for i := range g.agents {
		a := &g.agents[i]
		if a.lo < 0 || a.hi > p.K {
			t.Fatalf("agent %d negotiated out-of-horizon window [%d, %d)", i, a.lo, a.hi)
		}
		if len(a.q) > 0 && len(a.q) != (a.hi-a.lo)*a.colors {
			t.Fatalf("agent %d has %d table entries for %d slots of %d colors", i, len(a.q), a.hi-a.lo, a.colors)
		}
		for _, pol := range a.q {
			if pol >= len(a.policies) {
				t.Fatalf("agent %d references unknown policy %d", i, pol)
			}
		}
	}
}

// An agent reset through every arrival batch of a run, negotiating in
// between, must equal a zero agent reset once with the final known set:
// the same Γ_i, per-policy cover lists and energy view, and no
// per-negotiation state left over (the commit numbers go on the wire).
// Reset learns only what changed, so this is what makes that incremental
// path safe.
func TestAgentResetMatchesFresh(t *testing.T) {
	for _, opt := range []Options{{Seed: 5}, {Seed: 6, Colors: 3}, {Seed: 7, Reliable: true, DropRate: 0.2}} {
		cfg := workload.SmallScale()
		cfg.NumChargers, cfg.NumTasks = 8, 40
		cfg.FieldSide = 16
		cfg.ReleaseMax = 12
		p := mustProblem(t, cfg.Generate(rand.New(rand.NewSource(opt.Seed))))
		opt = opt.normalize()
		g := newNegotiator(p, opt)
		defer g.close()
		orient := nanOrient(p)
		slots, arrivals := arrivalBatches(p.In)
		if len(slots) < 3 {
			t.Fatalf("seed %d: %d arrival batches, want several", opt.Seed, len(slots))
		}
		negotiations, grown := 0, 0
		for b, now := range slots {
			before := make([]int, len(g.agents))
			for i := range g.agents {
				before[i] = len(g.agents[i].candidates)
			}
			g.learn(arrivals[now])
			lockUntil := min(now+p.In.Params.Tau, p.K)
			if b < len(slots)-1 {
				if g.maxEnd > lockUntil {
					if _, err := g.negotiate(orient, now, lockUntil); err != nil {
						t.Fatal(err)
					}
					negotiations++
					for i := range g.agents {
						if n := len(g.agents[i].candidates); n > before[i] && before[i] > 0 {
							grown++
						}
					}
				}
				continue
			}
			neighbors := g.prepare(orient, lockUntil)
			for i := range g.agents {
				a := &g.agents[i]
				var fresh agent
				fresh.reset(i, p, opt, g.known, g.energy, neighbors[i], lockUntil, g.maxEnd)
				if !reflect.DeepEqual(a.candidates, fresh.candidates) ||
					!reflect.DeepEqual(a.policies, fresh.policies) ||
					!slices.Equal(a.polCovers, fresh.polCovers) || !slices.Equal(a.polOff, fresh.polOff) {
					t.Fatalf("seed %d charger %d: reset agent's Γ_i %v (covers %v) != fresh %v (covers %v)",
						opt.Seed, i, a.policies, a.polCovers, fresh.policies, fresh.polCovers)
				}
				if len(a.q) != 0 || a.updSeq != fresh.updSeq || a.retransmits != fresh.retransmits || a.nUnacked != 0 {
					t.Fatalf("seed %d charger %d: reset kept per-negotiation state: %d table entries, commit seq %d, %d retransmits, %d unacked",
						opt.Seed, i, len(a.q), a.updSeq, a.retransmits, a.nUnacked)
				}
				for s := range fresh.energy {
					if !slices.Equal(a.energy[s], fresh.energy[s]) {
						t.Fatalf("seed %d charger %d sample %d: energy view %v != fresh %v", opt.Seed, i, s, a.energy[s], fresh.energy[s])
					}
				}
			}
		}
		if negotiations < 2 || grown == 0 {
			t.Fatalf("seed %d: %d negotiations and %d known rows grown — the run exercises no incremental reset",
				opt.Seed, negotiations, grown)
		}
	}
}

func allIDs(p *core.Problem) []int {
	ids := make([]int, len(p.In.Tasks))
	for j := range ids {
		ids[j] = j
	}
	return ids
}

// deepCopy copies src into dst, two addressable values of one type, so
// that they share no slice backing array: slices are copied element by
// element, recursively, and pointers as they are, so a copied agent
// still names the same Problem.
func deepCopy(dst, src reflect.Value) {
	dst, src = writable(dst), writable(src)
	switch src.Kind() {
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			deepCopy(dst.Field(i), src.Field(i))
		}
	case reflect.Slice:
		if src.IsNil() {
			dst.SetZero()
			return
		}
		dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Cap()))
		for i := 0; i < src.Len(); i++ {
			deepCopy(dst.Index(i), src.Index(i))
		}
	default:
		dst.Set(src)
	}
}

// writable drops the read-only mark reflect puts on a value reached
// through an unexported field.
func writable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// doneProbe steps its agent and, whenever the agent reports done, steps
// it again on an empty inbox and checks that the second step was a
// no-op: the contract that lets the round loop skip a done agent with
// nothing to read.
type doneProbe struct {
	t      *testing.T
	label  string
	a      *agent
	checks *int
}

func (d doneProbe) Step(inbox []netsim.Message, out *netsim.Payload) bool {
	done := d.a.Step(inbox, out)
	if done {
		var snap agent
		deepCopy(reflect.ValueOf(&snap).Elem(), reflect.ValueOf(d.a).Elem())
		var again netsim.Payload
		stillDone := d.a.Step(nil, &again)
		if !again.Silent() || !stillDone {
			d.t.Errorf("%s: charger %d, done, answers an empty inbox with %+v, done %v", d.label, d.a.id, again, stillDone)
		}
		if !reflect.DeepEqual(*d.a, snap) {
			d.t.Errorf("%s: charger %d, done, changes state on an empty inbox", d.label, d.a.id)
		}
		*d.checks++
	}
	return done
}

// Once an agent reports done, stepping it on an empty inbox returns
// silence and done and leaves it reflect.DeepEqual to a snapshot, with
// and without the reliability layer, on a clean and a lossy network.
func TestDoneAgentStepIsNoop(t *testing.T) {
	for _, opt := range probedOptions {
		label := fmt.Sprintf("reliable=%v drop=%v", opt.Reliable, opt.DropRate)
		checks := 0
		negotiateProbed(t, opt, func(a *agent) netsim.Node { return doneProbe{t, label, a, &checks} })
		if checks == 0 {
			t.Fatalf("%s: no agent ever reported done: the check is vacuous", label)
		}
		t.Logf("%s: %d done steps checked", label, checks)
	}
}

// bidProbe steps its agent and then checks its cached bid: while the
// agent's energy view is unchanged since its last recompute, (myPol,
// myBid) must be what a fresh recompute gives — the condition under
// which a bid round may resend it without recomputing.
type bidProbe struct {
	t      *testing.T
	label  string
	a      *agent
	checks *int
}

func (d bidProbe) Step(inbox []netsim.Message, out *netsim.Payload) bool {
	done := d.a.Step(inbox, out)
	if a := d.a; !a.viewChanged {
		pol, bid := a.myPol, a.myBid
		a.recompute()
		if a.myPol != pol || a.myBid != bid {
			d.t.Errorf("%s: charger %d, session (%d, %d): cached bid (%d, %v), fresh recompute (%d, %v)",
				d.label, a.id, a.sessionSlot, a.sessionColor, pol, bid, a.myPol, a.myBid)
		}
		a.myPol, a.myBid = pol, bid
		*d.checks++
	}
	return done
}

// An agent reuses its bid only while its view is unchanged: after every
// step, with and without the reliability layer, on a clean and a lossy
// network, an agent whose view applyCommit left unchanged holds the bid
// a fresh recompute gives.
func TestReusedBidMatchesRecompute(t *testing.T) {
	for _, opt := range probedOptions {
		label := fmt.Sprintf("reliable=%v drop=%v", opt.Reliable, opt.DropRate)
		checks := 0
		negotiateProbed(t, opt, func(a *agent) netsim.Node { return bidProbe{t, label, a, &checks} })
		if checks == 0 {
			t.Fatalf("%s: no step left a view unchanged: the check is vacuous", label)
		}
		t.Logf("%s: %d cached bids checked", label, checks)
	}
}

// probedOptions are the protocol settings the agent probes run under:
// with and without the reliability layer, on a clean and a lossy network.
var probedOptions = []Options{{}, {DropRate: 0.2}, {Reliable: true}, {Reliable: true, DropRate: 0.2}}

// negotiateProbed runs every negotiation of an online run of the chaos
// workload under opt (seed 603), with the driver stepping probe(a) in
// place of each agent a.
func negotiateProbed(t *testing.T, opt Options, probe func(a *agent) netsim.Node) {
	t.Helper()
	opt.Seed = 603
	p := chaosWorkload(opt.Seed)
	g := newNegotiator(p, opt.normalize())
	for i := range g.nodes {
		g.nodes[i] = probe(&g.agents[i])
	}
	orient := nanOrient(p)
	slots, arrivals := arrivalBatches(p.In)
	for _, now := range slots {
		g.learn(arrivals[now])
		if lockUntil := min(now+p.In.Params.Tau, p.K); g.maxEnd > lockUntil {
			if _, err := g.negotiate(orient, now, lockUntil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.close(); err != nil {
		t.Fatal(err)
	}
}

// Only a bid for the running session can beat the agent's bid: a payload
// without one never does, whatever its Delta.
func TestBeatenByRequiresBid(t *testing.T) {
	a := &agent{id: 5, sessionSlot: 2, sessionColor: 1, myBid: 1}
	upd := netsim.Payload{HasUpd: true, Slot: 2, Color: 1, Delta: 2}
	if a.beatenBy(netsim.Message{From: 0, Payload: &upd}) {
		t.Error("a UPD with a higher Delta beat the bid")
	}
	bid := upd
	bid.HasBid = true
	if !a.beatenBy(netsim.Message{From: 0, Payload: &bid}) {
		t.Error("a higher bid for the session did not beat the bid")
	}
	bid.Slot = 3
	if a.beatenBy(netsim.Message{From: 0, Payload: &bid}) {
		t.Error("a bid for another session beat the bid")
	}
}
