package difftest

import (
	"testing"

	"haste/internal/online"
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
