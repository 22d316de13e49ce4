// Package difftest is the differential-testing harness that pins every
// execution strategy of the centralized offline scheduler to the
// flat-kernel reference. Determinism is a repo invariant (DESIGN.md §3):
// the instrumented scan, the generic kernel and — on sharded runs — any
// component-pool size must produce byte-identical Schedule.Policy tables
// and equal utilities on the same seeded input. The harness provides the
// seeded workload sweep (varying n, m, horizon, C and N), runs a set of
// named variants against the Workers=1 reference and reports the first
// divergent cell — both internal/core's differential tests and the -race
// CI job drive it.
package difftest

import (
	"fmt"
	"math/rand"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/workload"
)

// Case is one seeded workload of the differential sweep together with the
// algorithm parameters under test.
type Case struct {
	Name     string
	Chargers int // n
	Tasks    int // m
	Duration [2]int
	Releases int // max release slot (controls the horizon K)
	Colors   int // C
	Samples  int // N (0 = the algorithm default 8·C)
	Seed     int64

	// Clusters > 0 switches the workload to clustered placement with that
	// many isolated clusters (radius 6 discs, charging radius 8), so the
	// instance decomposes into at least Clusters components — the
	// multi-component shapes of the sharded sweep (shard.go).
	Clusters int

	// Connected inflates the charging radius past the field diagonal and
	// opens the receive sector to the full circle, making every
	// charger–task pair chargeable: the instance is one single connected
	// component, the shape where a sharded run must be bit-identical to
	// the monolithic one.
	Connected bool
}

// Config returns the workload configuration of the case (paper defaults
// with the case's scale knobs applied).
func (c Case) Config() workload.Config {
	cfg := workload.Default()
	cfg.NumChargers = c.Chargers
	cfg.NumTasks = c.Tasks
	cfg.DurationMin, cfg.DurationMax = c.Duration[0], c.Duration[1]
	cfg.ReleaseMax = c.Releases
	cfg.EnergyMin, cfg.EnergyMax = 1e3, 6e3
	if c.Clusters > 0 {
		cfg.Placement = workload.Clustered
		cfg.NumClusters = c.Clusters
		cfg.Params.Radius = 8
		cfg.ClusterRadius = 6
	}
	if c.Connected {
		cfg.Params.Radius = 2 * cfg.FieldSide // beyond the field diagonal
		cfg.Params.ReceiveAngle = geom.TwoPi  // devices receive from anywhere
	}
	return cfg
}

// Problem generates the case's seeded instance and wraps it as a Problem.
func (c Case) Problem() (*core.Problem, error) {
	in := c.Config().Generate(rand.New(rand.NewSource(c.Seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		return nil, fmt.Errorf("difftest: case %s: %w", c.Name, err)
	}
	return p, nil
}

// Options assembles the case's scheduler options for one worker count.
// Each run gets a fresh deterministic Rng from the case seed so color
// sampling is identical across variants.
func (c Case) Options(workers int) core.Options {
	return core.Options{
		Colors:     c.Colors,
		Samples:    c.Samples,
		PreferStay: true,
		Rng:        rand.New(rand.NewSource(c.Seed)),
		Workers:    workers,
	}
}

// OptionsFor assembles the case's scheduler options for a Variant,
// including its instrumentation axis (the kernel axis is applied by the
// runners, since it is a Problem-level switch).
func (c Case) OptionsFor(v Variant) core.Options {
	o := c.Options(v.Workers)
	o.KernelStats = v.Stats
	return o
}

// Sweep is the seeded grid the differential suite runs: it crosses network
// scale (n, m), horizon length, color count C and Monte-Carlo sample count
// N, including the degenerate single-charger and single-slot shapes where
// tie-breaking and empty affected-sample sets bite hardest.
func Sweep() []Case {
	return []Case{
		{Name: "tiny-c1", Chargers: 2, Tasks: 6, Duration: [2]int{2, 6}, Releases: 3, Colors: 1, Seed: 101},
		{Name: "one-charger-c1", Chargers: 1, Tasks: 10, Duration: [2]int{3, 9}, Releases: 4, Colors: 1, Seed: 102},
		{Name: "one-slot-c2", Chargers: 6, Tasks: 12, Duration: [2]int{1, 1}, Releases: 0, Colors: 2, Samples: 6, Seed: 103},
		{Name: "small-c1", Chargers: 5, Tasks: 20, Duration: [2]int{4, 12}, Releases: 6, Colors: 1, Seed: 104},
		{Name: "small-c2", Chargers: 5, Tasks: 20, Duration: [2]int{4, 12}, Releases: 6, Colors: 2, Seed: 105},
		{Name: "small-c4", Chargers: 5, Tasks: 20, Duration: [2]int{4, 12}, Releases: 6, Colors: 4, Seed: 106},
		{Name: "mid-c1", Chargers: 10, Tasks: 40, Duration: [2]int{5, 16}, Releases: 8, Colors: 1, Seed: 107},
		{Name: "mid-c4", Chargers: 10, Tasks: 40, Duration: [2]int{5, 16}, Releases: 8, Colors: 4, Seed: 108},
		{Name: "mid-c8-n24", Chargers: 8, Tasks: 30, Duration: [2]int{4, 10}, Releases: 5, Colors: 8, Samples: 24, Seed: 109},
		{Name: "sparse-colors", Chargers: 6, Tasks: 24, Duration: [2]int{3, 8}, Releases: 4, Colors: 5, Samples: 3, Seed: 110},
		{Name: "long-horizon-c2", Chargers: 4, Tasks: 16, Duration: [2]int{20, 60}, Releases: 30, Colors: 2, Samples: 8, Seed: 111},
	}
}

// Variant names one execution strategy compared against the reference.
type Variant struct {
	Name string

	// Workers sizes the component pool of a sharded run; a monolithic
	// run ignores it.
	Workers int

	// Generic routes the run through the interface-dispatch fallback
	// kernel (Problem.SetFlatKernel(false)) — the pre-compilation
	// reference semantics. Comparing it against the flat-kernel reference
	// run is the old-vs-new kernel sweep.
	Generic bool

	// Stats enables Options.KernelStats, which selects the instrumented
	// per-state scan instead of the batched one.
	Stats bool
}

// Variants is the strategy set of a monolithic run: the instrumented
// per-state scan and the generic (pre-compilation) kernel, each against
// the batched flat-kernel reference. Worker counts are no axis here — a
// monolithic run is one sequential sweep whatever Workers says.
func Variants() []Variant {
	return []Variant{
		{Name: "stats", Workers: 1, Stats: true},
		{Name: "generic", Workers: 1, Generic: true},
	}
}

// ShardVariants is the strategy set of the sharded sweep: the monolithic
// variants plus the component-pool sizes — sequential, {2, 8} and the
// GOMAXPROCS default — crossed with both kernels and the instrumented
// scan.
func ShardVariants() []Variant {
	return append(Variants(),
		Variant{Name: "workers=1", Workers: 1},
		Variant{Name: "workers=2", Workers: 2},
		Variant{Name: "workers=8", Workers: 8},
		Variant{Name: "workers=default", Workers: 0},
		Variant{Name: "stats/workers=2", Workers: 2, Stats: true},
		Variant{Name: "generic/workers=2", Workers: 2, Generic: true},
	)
}

// CompareResults returns a descriptive error for the first cell where two
// results diverge, or nil when the schedules are byte-identical and the
// utilities exactly equal.
func CompareResults(ref, got core.Result) error {
	if len(ref.Schedule.Policy) != len(got.Schedule.Policy) {
		return fmt.Errorf("charger count %d != %d", len(got.Schedule.Policy), len(ref.Schedule.Policy))
	}
	for i := range ref.Schedule.Policy {
		if len(ref.Schedule.Policy[i]) != len(got.Schedule.Policy[i]) {
			return fmt.Errorf("charger %d: slot count %d != %d", i, len(got.Schedule.Policy[i]), len(ref.Schedule.Policy[i]))
		}
		for k := range ref.Schedule.Policy[i] {
			if ref.Schedule.Policy[i][k] != got.Schedule.Policy[i][k] {
				return fmt.Errorf("policy diverges at charger %d slot %d: %d != %d",
					i, k, got.Schedule.Policy[i][k], ref.Schedule.Policy[i][k])
			}
		}
	}
	if ref.RUtility != got.RUtility {
		return fmt.Errorf("RUtility %v != reference %v (schedules identical)", got.RUtility, ref.RUtility)
	}
	return nil
}

// Run executes the sequential flat-kernel reference and every variant on
// the case and returns an error naming the first divergence.
func Run(c Case, variants []Variant) error {
	p, err := c.Problem()
	if err != nil {
		return err
	}
	ref := core.TabularGreedy(p, c.Options(1))
	for _, v := range variants {
		p.SetFlatKernel(!v.Generic)
		got := core.TabularGreedy(p, c.OptionsFor(v))
		p.SetFlatKernel(true)
		if err := CompareResults(ref, got); err != nil {
			return fmt.Errorf("case %s, variant %s: %w", c.Name, v.Name, err)
		}
	}
	return nil
}
