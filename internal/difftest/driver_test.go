package difftest

import (
	"slices"
	"sync/atomic"
	"testing"

	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/transport"
)

// TestDriverSweep is the headline cross-driver differential suite: every
// seeded scenario (failure-free plus all four failure modes and the
// combined storm, reliability layer off and on) runs on the sequential
// in-memory engine and the loopback TCP engine, and the two executions
// must produce bit-identical committed
// schedules, utilities and switch counts, reflect.DeepEqual Stats, and
// exactly reconciled message balances. CI runs it under the race detector.
func TestDriverSweep(t *testing.T) {
	scenarios := DriverSweep()
	if testing.Short() {
		scenarios = scenarios[:4] // clean and drop, reliability off/on
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if err := RunDriverScenario(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// countingNode counts the steps of the node it wraps. The TCP engine
// steps each node on its own goroutine, hence the atomic.
type countingNode struct {
	netsim.Node
	steps *atomic.Int64
}

func (c countingNode) Step(inbox []netsim.Message, out *netsim.Payload) bool {
	c.steps.Add(1)
	return c.Node.Step(inbox, out)
}

// countingDriver runs every session with node i behind a countingNode
// that adds to steps[i].
type countingDriver struct {
	netsim.Driver
	steps   []atomic.Int64
	wrapped []netsim.Node
}

func (d *countingDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	d.wrapped = d.wrapped[:0]
	for i, nd := range nodes {
		d.wrapped = append(d.wrapped, countingNode{nd, &d.steps[i]})
	}
	return d.Driver.Run(d.wrapped)
}

// stepCounts runs sc over factory and returns each charger's Step count
// over the whole run, and the run's network Stats.
func stepCounts(t *testing.T, sc DriverScenario, factory netsim.Factory) ([]int64, netsim.Stats) {
	t.Helper()
	p, err := ChaosProblem(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var d *countingDriver
	opt := sc.Opt
	opt.Seed = sc.Seed
	opt.Driver = func(neighbors [][]int, nopt netsim.Options) (netsim.Driver, error) {
		inner, err := factory(neighbors, nopt)
		if err != nil {
			return nil, err
		}
		d = &countingDriver{Driver: inner, steps: make([]atomic.Int64, len(neighbors))}
		return d, nil
	}
	res, err := online.Run(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(p.In.Chargers))
	if d != nil {
		for i := range counts {
			counts[i] = d.steps[i].Load()
		}
	}
	return counts, res.Stats.Net
}

// The TCP engine steps exactly the nodes the in-memory engine steps: on
// every DriverSweep scenario, every failure mode included, each charger
// takes the same number of Steps under both. The sweep must also skip
// idle done agents somewhere — fewer steps than one per charger per
// round — or the equality would hold for an engine that skips nothing.
func TestDriverStepCounts(t *testing.T) {
	scenarios := DriverSweep()
	if testing.Short() {
		scenarios = scenarios[:4]
	}
	var skipped int64
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			mem, st := stepCounts(t, sc, netsim.MemFactory)
			tcp, _ := stepCounts(t, sc, transport.Factory)
			if !slices.Equal(mem, tcp) {
				t.Fatalf("per-charger steps differ:\n mem %v\n tcp %v", mem, tcp)
			}
			skipped += int64(len(mem)) * int64(st.Rounds)
			for _, k := range mem {
				skipped -= k
			}
		})
	}
	if skipped <= 0 {
		t.Fatal("every charger was stepped in every round of the sweep: no idle agent was skipped")
	}
}

// TestDriverSweepCoversTheRequiredAxes pins the sweep's shape so a future
// edit cannot silently drop a failure mode or the reliability axis.
func TestDriverSweepCoversTheRequiredAxes(t *testing.T) {
	scenarios := DriverSweep()
	if len(scenarios) != 12 {
		t.Fatalf("sweep has %d scenarios, want 12 (6 failure modes x reliability on/off)", len(scenarios))
	}
	var reliable, faulty int
	modes := map[string]bool{}
	for _, sc := range scenarios {
		modes[sc.Name] = true
		if sc.Opt.Reliable {
			reliable++
		}
		if sc.Opt.DropRate > 0 || sc.Opt.DupRate > 0 || sc.Opt.DelayRate > 0 || sc.Opt.CrashRate > 0 {
			faulty++
		}
	}
	if reliable != len(scenarios)/2 {
		t.Errorf("reliability axis unbalanced: %d of %d scenarios reliable", reliable, len(scenarios))
	}
	if faulty != 10 {
		t.Errorf("failure axis wrong: %d faulty scenarios, want 10", faulty)
	}
	for _, name := range []string{"clean", "drop+rel", "dup", "delay+rel", "crash", "storm+rel"} {
		if !modes[name] {
			t.Errorf("sweep is missing scenario %q", name)
		}
	}
}

// TestCheckMessageBalanceRejectsImbalance guards the guard: a Stats whose
// counters do not reconcile must be reported, or the sweep's balance check
// is vacuous.
func TestCheckMessageBalanceRejectsImbalance(t *testing.T) {
	p, err := ChaosProblem(603)
	if err != nil {
		t.Fatal(err)
	}
	res, err := online.Run(p, online.Options{Seed: 603, DropRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Net
	if err := CheckMessageBalance(s); err != nil {
		t.Fatalf("real run does not reconcile: %v", err)
	}
	s.Dropped++
	if CheckMessageBalance(s) == nil {
		t.Fatal("tampered stats passed the balance check")
	}
}
