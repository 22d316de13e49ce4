// Cross-driver differential suite: the online negotiation must be
// substrate-invariant. Every seeded scenario of DriverSweep — failure-free
// and all four injected failure modes, reliability layer on and off — is
// run on the sequential in-memory engine (the reference) and the loopback
// TCP engine (package transport), and the two executions must agree bit
// for bit:
// identical committed orientation timelines, utilities and switch counts,
// reflect.DeepEqual Stats, and a message balance that reconciles exactly,
//
//	Messages == Attempted - Dropped - CrashLost - Expired + Duplicated.
//
// Anti-vacuity guards reject a sweep where an enabled failure mode never
// fired: a drop scenario whose RNG happened to drop nothing would pass
// trivially while testing nothing, so such a scenario is an error, not a
// pass — the seeds are pinned to keep every mode live.
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/transport"
	"haste/internal/workload"
)

// ChaosProblem is the pinned chaos workload of the failure sweeps (dense
// enough that lost UPD commits actually cost utility): 20 chargers and 30
// tasks on a 12 m field with a 150° receive sector. The online package's
// chaos tests and the transport package's socket chaos sweep use the same
// seeds (603, 614, 622) on it.
func ChaosProblem(seed int64) (*core.Problem, error) {
	cfg := workload.SmallScale()
	cfg.NumChargers = 20
	cfg.NumTasks = 30
	cfg.FieldSide = 12
	cfg.ReleaseMax = 4
	cfg.DurationMin, cfg.DurationMax = 2, 6
	cfg.Params.ReceiveAngle = geom.Deg(150)
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		return nil, fmt.Errorf("difftest: chaos problem seed %d: %w", seed, err)
	}
	return p, nil
}

// DriverScenario is one seeded cell of the cross-driver sweep: a failure
// mode (or none) and a reliability setting, run identically on every
// driver.
type DriverScenario struct {
	Name string
	Seed int64
	// Opt carries the failure-injection knobs and Reliable; the harness
	// fills Seed and the per-driver field (Driver).
	Opt online.Options
}

// DriverSweep returns every seeded scenario of the cross-driver
// differential suite: failure-free, each single failure mode at the
// chaos-test rates, and the combined storm — each with the reliability
// layer off and on. The seed is pinned per failure mode so the
// anti-vacuity guards hold (every enabled mode fires at least once).
func DriverSweep() []DriverScenario {
	modes := []struct {
		name string
		opt  online.Options
	}{
		{"clean", online.Options{}},
		{"drop", online.Options{DropRate: 0.1}},
		{"dup", online.Options{DupRate: 0.2}},
		{"delay", online.Options{DelayRate: 0.3}},
		{"crash", online.Options{CrashRate: 0.03}},
		{"storm", online.Options{DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, CrashRate: 0.02}},
	}
	var out []DriverScenario
	for _, m := range modes {
		for _, reliable := range []bool{false, true} {
			sc := DriverScenario{Name: m.name, Seed: 603, Opt: m.opt}
			sc.Opt.Reliable = reliable
			if reliable {
				sc.Name += "+rel"
			}
			out = append(out, sc)
		}
	}
	return out
}

// DriverVariant is one non-reference execution substrate compared against
// the sequential in-memory engine.
type DriverVariant struct {
	Name  string
	Apply func(*online.Options)
}

// DriverVariants returns the substrates under test: the loopback TCP
// engine, whose nodes step concurrently on their own connections.
func DriverVariants() []DriverVariant {
	return []DriverVariant{
		{Name: "tcp", Apply: func(o *online.Options) { o.Driver = transport.Factory }},
	}
}

// CheckMessageBalance verifies the netsim accounting identity that every
// driver must preserve exactly.
func CheckMessageBalance(s netsim.Stats) error {
	want := s.Attempted - s.Dropped - s.CrashLost - s.Expired + s.Duplicated
	if s.Messages != want {
		return fmt.Errorf("message balance broken: Messages %d != Attempted %d - Dropped %d - CrashLost %d - Expired %d + Duplicated %d = %d",
			s.Messages, s.Attempted, s.Dropped, s.CrashLost, s.Expired, s.Duplicated, want)
	}
	return nil
}

// checkVacuity rejects a scenario whose enabled failure modes never fired
// — a sweep cell that injects nothing proves nothing.
func checkVacuity(opt online.Options, s netsim.Stats) error {
	if s.Attempted == 0 {
		return fmt.Errorf("vacuous scenario: no send was ever attempted")
	}
	if opt.DropRate > 0 && s.Dropped == 0 {
		return fmt.Errorf("vacuous scenario: DropRate %v enabled but nothing dropped", opt.DropRate)
	}
	if opt.DupRate > 0 && s.Duplicated == 0 {
		return fmt.Errorf("vacuous scenario: DupRate %v enabled but nothing duplicated", opt.DupRate)
	}
	if opt.DelayRate > 0 && s.Delayed == 0 {
		return fmt.Errorf("vacuous scenario: DelayRate %v enabled but nothing delayed", opt.DelayRate)
	}
	if opt.CrashRate > 0 && s.Crashes == 0 {
		return fmt.Errorf("vacuous scenario: CrashRate %v enabled but nothing crashed", opt.CrashRate)
	}
	return nil
}

// CompareOnlineResults returns a descriptive error for the first place two
// online runs diverge: the committed orientation timelines (NaN-tolerant
// bitwise compare — NaN means "keep previous orientation" and must appear
// in the same cells), the physical utility and switch count, and the full
// Stats including the per-negotiation breakdown.
func CompareOnlineResults(ref, got online.Result) error {
	if len(ref.Orientations) != len(got.Orientations) {
		return fmt.Errorf("charger count %d != %d", len(got.Orientations), len(ref.Orientations))
	}
	for i := range ref.Orientations {
		if len(ref.Orientations[i]) != len(got.Orientations[i]) {
			return fmt.Errorf("charger %d: slot count %d != %d", i, len(got.Orientations[i]), len(ref.Orientations[i]))
		}
		for k := range ref.Orientations[i] {
			rv, gv := ref.Orientations[i][k], got.Orientations[i][k]
			if math.IsNaN(rv) != math.IsNaN(gv) || (!math.IsNaN(rv) && rv != gv) {
				return fmt.Errorf("schedule diverges at charger %d slot %d: %v != %v", i, k, gv, rv)
			}
		}
	}
	if ref.Outcome.Utility != got.Outcome.Utility {
		return fmt.Errorf("utility %v != reference %v (schedules identical)", got.Outcome.Utility, ref.Outcome.Utility)
	}
	if ref.Outcome.Switches != got.Outcome.Switches {
		return fmt.Errorf("switch count %d != reference %d", got.Outcome.Switches, ref.Outcome.Switches)
	}
	if !reflect.DeepEqual(ref.Stats, got.Stats) {
		if ref.Stats.Net != got.Stats.Net {
			return fmt.Errorf("network stats diverge: %+v != reference %+v", got.Stats.Net, ref.Stats.Net)
		}
		return fmt.Errorf("stats diverge: %+v != reference %+v", got.Stats, ref.Stats)
	}
	return nil
}

// RunDriverScenario executes one sweep cell on the reference substrate and
// every variant, checking equivalence, the exact message balance on each
// run, and the anti-vacuity guards. It returns the first divergence.
func RunDriverScenario(sc DriverScenario) error {
	p, err := ChaosProblem(sc.Seed)
	if err != nil {
		return err
	}
	opt := sc.Opt
	opt.Seed = sc.Seed
	ref, err := online.Run(p, opt)
	if err != nil {
		return fmt.Errorf("scenario %s: reference run: %w", sc.Name, err)
	}
	if err := CheckMessageBalance(ref.Stats.Net); err != nil {
		return fmt.Errorf("scenario %s: reference: %w", sc.Name, err)
	}
	if err := checkVacuity(opt, ref.Stats.Net); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	for _, v := range DriverVariants() {
		o := opt
		v.Apply(&o)
		got, err := online.Run(p, o)
		if err != nil {
			return fmt.Errorf("scenario %s, driver %s: %w", sc.Name, v.Name, err)
		}
		if err := CheckMessageBalance(got.Stats.Net); err != nil {
			return fmt.Errorf("scenario %s, driver %s: %w", sc.Name, v.Name, err)
		}
		if err := CompareOnlineResults(ref, got); err != nil {
			return fmt.Errorf("scenario %s, driver %s: %w", sc.Name, v.Name, err)
		}
	}
	return nil
}
