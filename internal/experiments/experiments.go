// Package experiments maps every table and figure of the paper's
// evaluation (§7 simulations, §8 field experiments) to a reproducible
// driver. Each driver generates the workloads, runs the algorithms,
// averages over repeated topologies and returns a report.Table whose
// series corresponds to one figure. The experiment IDs match DESIGN.md's
// per-experiment index (fig4 … fig25).
package experiments

import (
	"fmt"
	"math/rand"

	"haste/internal/baseline"
	"haste/internal/core"
	"haste/internal/model"
	"haste/internal/netsim"
	"haste/internal/obs"
	"haste/internal/online"
	"haste/internal/report"
	"haste/internal/sim"
	"haste/internal/workload"
)

// Options tunes every experiment run.
type Options struct {
	// Reps is the number of random topologies averaged per data point.
	// The paper uses 100; the default here is 3 so a full sweep finishes
	// interactively — pass --reps 100 for paper fidelity.
	Reps int
	// Seed is the base RNG seed; rep r of data point d uses a seed
	// derived from (Seed, d, r), so runs are reproducible.
	Seed int64
	// Samples overrides the Monte-Carlo sample count of TabularGreedy for
	// C > 1 (0 = algorithm default 8·C). The heavy online color sweeps
	// use a smaller value by default, noted in the table title.
	Samples int
	// Quick shrinks the workloads (fewer chargers/tasks, shorter
	// horizons) so the whole suite runs in seconds. Used by tests and
	// smoke runs; the series shapes remain, absolute values differ.
	Quick bool
	// Workers bounds the component pool of sharded solves
	// (core.Options.Workers): 0 = one worker per CPU, 1 = sequential;
	// monolithic solves ignore it. Any value produces the same figures
	// bit-for-bit; only wall-clock time changes.
	Workers int
	// Trace, when non-nil, records every HASTE solve's phase spans into
	// the probe (obs package). Figures are bit-identical traced or not;
	// `haste run --trace` aggregates the forest into a per-phase summary.
	Trace *obs.Trace
	// Transport selects the negotiation substrate of the online figures
	// (online.Options.Driver): nil = in-memory netsim, transport.Factory =
	// loopback TCP sockets. Every figure is bit-identical either way —
	// that is the cross-driver equivalence contract — only wall-clock
	// time changes (`haste run --transport tcp` exists to demonstrate it).
	Transport netsim.Factory
}

// online returns the distributed-scheduler options for the given color
// count with the run's Transport substrate applied.
func (o Options) online(colors, samples int, seed int64) online.Options {
	return online.Options{
		Colors: colors, Samples: samples, Seed: seed, Driver: o.Transport,
	}
}

// haste returns the TabularGreedy options for the given color count with
// the run's Workers bound applied.
func (o Options) haste(colors int) core.Options {
	opt := core.DefaultOptions(colors)
	opt.Workers = o.Workers
	opt.Trace = o.Trace
	return opt
}

func (o Options) normalize() Options {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

// repSeed derives the deterministic seed for a (data point, repetition).
func (o Options) repSeed(point, rep int) int64 {
	return o.Seed*1_000_003 + int64(point)*1_009 + int64(rep)
}

// crnSeed derives the seed for repetition rep shared across all sweep
// points — common random numbers: every point of a sweep sees the same
// random topologies and differs only in the swept parameter, which removes
// cross-point sampling noise from the curves (the standard variance-
// reduction technique for parameter sweeps).
func (o Options) crnSeed(rep int) int64 {
	return o.Seed*1_000_003 + int64(rep)
}

// baseConfig returns the paper's default workload, shrunk under Quick.
func (o Options) baseConfig() workload.Config {
	cfg := workload.Default()
	if o.Quick {
		cfg.NumChargers = 10
		cfg.NumTasks = 30
		cfg.DurationMin, cfg.DurationMax = 4, 16
		cfg.ReleaseMax = 8
		cfg.EnergyMin, cfg.EnergyMax = 1e3, 4e3
	}
	return cfg
}

// Experiment is one reproducible figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*report.Table, error)
}

// All returns every experiment in figure order.
func All() []Experiment {
	return []Experiment{
		{"fig4", "Fig. 4: charging angle A_s vs charging utility (centralized offline)", fig4},
		{"fig5", "Fig. 5: receiving angle A_o vs charging utility (centralized offline)", fig5},
		{"fig6", "Fig. 6: switching delay ρ vs charging utility (centralized offline)", fig6},
		{"fig7", "Fig. 7: color number C vs charging utility box plot (centralized offline)", fig7},
		{"fig8", "Fig. 8: A_s vs charging utility with optimum (small-scale networks)", fig8},
		{"fig9", "Fig. 9: A_o vs charging utility with optimum (small-scale networks)", fig9},
		{"fig10", "Fig. 10: required energy & task duration vs utility (centralized offline)", fig10},
		{"fig11", "Fig. 11: required energy & task duration vs utility (distributed online)", fig11},
		{"fig12", "Fig. 12: charging angle A_s vs charging utility (distributed online)", fig12},
		{"fig13", "Fig. 13: receiving angle A_o vs charging utility (distributed online)", fig13},
		{"fig14", "Fig. 14: switching delay ρ vs charging utility (distributed online)", fig14},
		{"fig15", "Fig. 15: color number C vs charging utility box plot (distributed online)", fig15},
		{"fig16", "Fig. 16: communication cost vs number of chargers (distributed online)", fig16},
		{"fig17", "Fig. 17: Gaussian placement variance vs overall charging utility", fig17},
		{"fig18", "Fig. 18: individual charging utility vs required charging energy", fig18},
		{"fig21", "Fig. 21: testbed topology 1, per-task utility (centralized offline)", fig21},
		{"fig22", "Fig. 22: testbed topology 1, per-task utility (distributed online)", fig22},
		{"fig24", "Fig. 24: testbed topology 2, per-task utility (centralized offline)", fig24},
		{"fig25", "Fig. 25: testbed topology 2, per-task utility (distributed online)", fig25},
		{"ext-emr", "Ext: EMR safety threshold vs utility (safe-charging extension)", extEMR},
		{"ext-aniso", "Ext: anisotropic receiving gain vs the isotropic model", extAniso},
		{"ext-switch", "Ext: fixed vs rotation-proportional switching delay", extSwitch},
	}
}

// ByID finds an experiment by its DESIGN.md identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (see `haste list`)", id)
}

// utilities4 holds the four compared algorithms' physical utilities.
type utilities4 struct {
	h1, h4, gu, gc float64
}

func (a *utilities4) add(b utilities4) {
	a.h1 += b.h1
	a.h4 += b.h4
	a.gu += b.gu
	a.gc += b.gc
}

func (a *utilities4) scale(f float64) {
	a.h1 *= f
	a.h4 *= f
	a.gu *= f
	a.gc *= f
}

// offlineUtilities runs HASTE (C=1 and C=4), GreedyUtility and
// GreedyCover in the offline scenario and simulates the schedules with
// switching delay.
func offlineUtilities(in *model.Instance, o Options, seed int64) (utilities4, error) {
	p, err := core.NewProblem(in)
	if err != nil {
		return utilities4{}, err
	}
	var u utilities4
	r1 := core.TabularGreedy(p, o.haste(1))
	u.h1 = sim.Execute(p, r1.Schedule).Utility
	r4 := core.TabularGreedy(p, core.Options{
		Colors: 4, Samples: o.Samples, PreferStay: true,
		Rng: rand.New(rand.NewSource(seed)), Workers: o.Workers,
		Trace: o.Trace,
	})
	u.h4 = sim.Execute(p, r4.Schedule).Utility
	u.gu = sim.Execute(p, baseline.GreedyUtility(p)).Utility
	u.gc = sim.Execute(p, baseline.GreedyCover(p)).Utility
	return u, nil
}

// onlineUtilities runs the distributed online HASTE (C=1 and C=4) and the
// online baselines.
func onlineUtilities(in *model.Instance, o Options, seed int64) (utilities4, error) {
	p, err := core.NewProblem(in)
	if err != nil {
		return utilities4{}, err
	}
	samples := o.Samples
	if samples == 0 {
		// The distributed C = 4 run re-evaluates marginals per Monte-Carlo
		// sample on every negotiation round; 2·C samples keeps full-scale
		// sweeps tractable (override with --samples for higher fidelity).
		samples = 8
	}
	var u utilities4
	h1, err := online.Run(p, o.online(1, 0, seed))
	if err != nil {
		return utilities4{}, err
	}
	u.h1 = h1.Outcome.Utility
	h4, err := online.Run(p, o.online(4, samples, seed))
	if err != nil {
		return utilities4{}, err
	}
	u.h4 = h4.Outcome.Utility
	u.gu = sim.Execute(p, baseline.GreedyUtilityOnline(p)).Utility
	u.gc = sim.Execute(p, baseline.GreedyCoverOnline(p)).Utility
	return u, nil
}

// sweep4 runs one of the two scenario runners over a sequence of workload
// mutations and averages the four algorithms per point.
func sweep4(o Options, labels []string, mutate func(point int, cfg *workload.Config),
	runner func(in *model.Instance, o Options, seed int64) (utilities4, error),
	tbl *report.Table, xName string) error {
	for point, label := range labels {
		var avg utilities4
		for rep := 0; rep < o.Reps; rep++ {
			cfg := o.baseConfig()
			mutate(point, &cfg)
			in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
			u, err := runner(in, o, o.repSeed(point, rep))
			if err != nil {
				return fmt.Errorf("%s=%s rep %d: %w", xName, label, rep, err)
			}
			avg.add(u)
		}
		avg.scale(1 / float64(o.Reps))
		tbl.AddRow(label, avg.h1, avg.h4, avg.gu, avg.gc)
	}
	return nil
}
