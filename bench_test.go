// Benchmarks: one per reproduced table/figure (BenchmarkFigNN regenerates
// the corresponding experiment series at smoke scale — run
// `go run ./cmd/haste run --fig figNN --reps 100` for paper-fidelity
// numbers), plus micro-benchmarks of the algorithmic kernels and the
// ablation benches called out in DESIGN.md §7.
package haste_test

import (
	"fmt"
	"math/rand"
	"testing"

	"haste"
	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/emr"
	"haste/internal/experiments"
	"haste/internal/model"
	"haste/internal/online"
	"haste/internal/opt"
	"haste/internal/sim"
	"haste/internal/workload"
)

// --- figure benches -------------------------------------------------------

func benchFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.Options{Reps: 1, Seed: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig04(b *testing.B) { benchFigure(b, "fig4") }
func BenchmarkFig05(b *testing.B) { benchFigure(b, "fig5") }
func BenchmarkFig06(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig07(b *testing.B) { benchFigure(b, "fig7") }
func BenchmarkFig08(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig09(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchFigure(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig21(b *testing.B) { benchFigure(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchFigure(b, "fig22") }
func BenchmarkFig24(b *testing.B) { benchFigure(b, "fig24") }
func BenchmarkFig25(b *testing.B) { benchFigure(b, "fig25") }

// --- kernel benches -------------------------------------------------------

// paperScaleProblem builds one §7.1-scale instance (50 chargers, 200
// tasks).
func paperScaleProblem(b *testing.B) *core.Problem {
	b.Helper()
	in := workload.Default().Generate(rand.New(rand.NewSource(1)))
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// midScaleProblem is a 12-charger, 40-task field for benches that run
// many full solves per iteration.
func midScaleProblem(b *testing.B) *core.Problem {
	b.Helper()
	cfg := workload.Default()
	cfg.NumChargers, cfg.NumTasks = 12, 40
	cfg.DurationMin, cfg.DurationMax = 5, 20
	cfg.ReleaseMax = 10
	in := cfg.Generate(rand.New(rand.NewSource(2)))
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkDominantExtractAll(b *testing.B) {
	in := workload.Default().Generate(rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dominant.ExtractAll(in)
	}
}

// BenchmarkNewProblem measures the full compile — validation, grid-fed
// sparse rows, dominant extraction, kernel — across three scales: the
// paper's §7.1/Fig. 4 instance and the clustered fleet at 10⁴ and 10⁵
// tasks. Run with -benchmem: bytes/op is the headline, since the sparse
// rows replaced a dense n×m float64 table that would cost n·m·8 bytes
// (212 MB at 10⁴, ~10 GB at 10⁵) before dominant extraction even starts.
// BENCH_core.json's "compile" section records the numbers.
func BenchmarkNewProblem(b *testing.B) {
	for _, cfg := range []struct {
		name string
		gen  func() *model.Instance
	}{
		{"fig4", func() *model.Instance {
			return workload.Default().Generate(rand.New(rand.NewSource(1)))
		}},
		{"fleet1e4", func() *model.Instance {
			return workload.FleetScale(10_000).Generate(rand.New(rand.NewSource(1)))
		}},
		{"fleet1e5", func() *model.Instance {
			return workload.FleetScale(100_000).Generate(rand.New(rand.NewSource(1)))
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			in := cfg.gen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewProblem(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarginalEvaluation measures one Marginal call on the §7.1-scale
// instance — the innermost operation of every scheduler. The flat
// sub-bench runs the compiled kernel (the production path), generic the
// interface-dispatch fallback the kernel replaced; both must be 0 allocs/op
// (internal/core's TestMarginalPathsAllocationFree pins the flat path).
func BenchmarkMarginalEvaluation(b *testing.B) {
	for _, cfg := range []struct {
		name string
		flat bool
	}{{"flat", true}, {"generic", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := paperScaleProblem(b)
			p.SetFlatKernel(cfg.flat)
			defer p.SetFlatKernel(true)
			es, gamma := core.NewEnergyState(p), p.Gamma()
			n := len(p.In.Chargers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := i % n
				es.Marginal(ch, i%p.K, i%len(gamma[ch]))
			}
		})
	}
}

func BenchmarkTabularGreedyC1(b *testing.B) {
	p := paperScaleProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TabularGreedy(p, core.DefaultOptions(1))
	}
}

func BenchmarkTabularGreedyC4(b *testing.B) {
	p := paperScaleProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TabularGreedy(p, core.Options{Colors: 4, PreferStay: true})
	}
}

// BenchmarkTabularGreedyKernel compares the compiled flat kernel against
// the generic interface-dispatch fallback on the full Fig. 7 greedy run
// (C = 4, §7.1 defaults) — the end-to-end view of what the kernel buys.
// The stats sub-bench runs the flat kernel with Options.KernelStats and
// reports the saturation-pruning skip ratio as a custom metric
// (skipped evaluations / offered evaluations; see core.KernelStats).
func BenchmarkTabularGreedyKernel(b *testing.B) {
	p := paperScaleProblem(b)
	for _, cfg := range []struct {
		name  string
		flat  bool
		stats bool
	}{{"flat", true, false}, {"generic", false, false}, {"stats", true, true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p.SetFlatKernel(cfg.flat)
			defer p.SetFlatKernel(true)
			b.ReportAllocs()
			var last core.KernelStats
			for i := 0; i < b.N; i++ {
				res := core.TabularGreedy(p, core.Options{
					Colors: 4, PreferStay: true, Workers: 1, KernelStats: cfg.stats,
				})
				last = res.Kernel
			}
			if cfg.stats && last.Offered > 0 {
				b.ReportMetric(float64(last.Offered-last.Visited)/float64(last.Offered), "skipped/offered")
			}
		})
	}
}

func BenchmarkSimExecute(b *testing.B) {
	p := paperScaleProblem(b)
	res := core.TabularGreedy(p, core.DefaultOptions(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Execute(p, res.Schedule)
	}
}

func BenchmarkOnlineRun(b *testing.B) {
	p := midScaleProblem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(p, online.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineRunFleet runs the distributed online algorithm on the
// clustered 10⁴-task fleet (1 250 chargers, seed 1, C=1): one agent per
// charger for the whole run, holding only its own sparse row, re-extracts
// Γ_i only when an arrival batch adds a task to that row. EXPERIMENTS.md
// ("Online at fleet scale") records it.
func BenchmarkOnlineRunFleet(b *testing.B) {
	p, err := core.NewProblem(workload.FleetScale(10_000).Generate(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.Run(p, online.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptSolveSmallScale(b *testing.B) {
	cfg := haste.SmallScaleWorkload()
	in := cfg.Generate(rand.New(rand.NewSource(3)))
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Solve(p, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- beyond-paper scale (shard-and-stitch) ---------------------------------

// BenchmarkFleetScaleSharded runs TabularGreedy C=1 on the clustered
// 10⁴-task fleet (50× the paper's largest workload; 250 clusters, 1250
// chargers), monolithic vs shard-and-stitch. Every row produces exactly
// the same utility (internal/difftest's sharded sweep proves the general
// contract; TestFleetScaleShardedEquivalence pins this instance). On a
// single-vCPU box the sharded workers cannot run concurrently, so the
// W4 row measures dispatch overhead only; the interesting single-core
// number is sharded/W1 vs mono/W1 — smaller per-component tables. The
// first sharded run also compiles the 256 component sub-Problems; the
// compile sub-bench isolates that one-time cost.
func BenchmarkFleetScaleSharded(b *testing.B) {
	in := workload.FleetScale(10_000).Generate(rand.New(rand.NewSource(1)))
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.NewProblem(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"mono/W1", core.Options{Colors: 1, PreferStay: true, Workers: 1, Shard: core.ShardOff}},
		{"sharded/W1", core.Options{Colors: 1, PreferStay: true, Workers: 1, Shard: core.ShardOn}},
		{"sharded/W4", core.Options{Colors: 1, PreferStay: true, Workers: 4, Shard: core.ShardOn}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var res core.Result
			for i := 0; i < b.N; i++ {
				res = core.TabularGreedy(p, cfg.opt)
			}
			if res.Shards > 0 {
				b.ReportMetric(float64(res.Shards), "components")
			}
		})
	}
}

// --- ablations (DESIGN.md §7) ----------------------------------------------

// BenchmarkAblationColors measures the cost of the TabularGreedy control
// parameter C (quality numbers are in EXPERIMENTS.md; here: time/allocs).
func BenchmarkAblationColors(b *testing.B) {
	p := midScaleProblem(b)
	for _, c := range []struct {
		name   string
		colors int
	}{{"C1", 1}, {"C2", 2}, {"C4", 4}, {"C8", 8}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.TabularGreedy(p, core.Options{Colors: c.colors, PreferStay: true})
			}
		})
	}
}

// BenchmarkAblationAnisotropic measures the cost of the anisotropic
// receiving-gain extension (the paper's cited future-work model).
func BenchmarkAblationAnisotropic(b *testing.B) {
	for _, aniso := range []bool{false, true} {
		name := "isotropic"
		if aniso {
			name = "anisotropic"
		}
		b.Run(name, func(b *testing.B) {
			cfg := workload.Default()
			cfg.NumChargers, cfg.NumTasks = 12, 40
			cfg.Params.AnisotropicGain = aniso
			in := cfg.Generate(rand.New(rand.NewSource(4)))
			p, err := core.NewProblem(in)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.TabularGreedy(p, core.DefaultOptions(1))
			}
		})
	}
}

// BenchmarkAblationEMR measures the cost of the EMR-safety extension:
// unconstrained locally greedy vs the EMR-constrained greedy at loose and
// tight thresholds over a 2.5 m monitoring grid.
func BenchmarkAblationEMR(b *testing.B) {
	cfg := workload.Default()
	cfg.NumChargers, cfg.NumTasks = 12, 40
	cfg.FieldSide = 30
	in := cfg.Generate(rand.New(rand.NewSource(6)))
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	grid := emr.Grid(30, 2.5)
	b.Run("unconstrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.TabularGreedy(p, core.DefaultOptions(1))
		}
	})
	for _, limit := range []float64{50, 10} {
		f := emr.Field{Points: grid, Gamma: 1, Limit: limit}
		b.Run(fmt.Sprintf("limit%.0f", limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				emr.ConstrainedGreedy(p, f)
			}
		})
	}
}

// BenchmarkAblationDominantPerSlot compares one global dominant-set
// extraction (the paper's Γ_{i,k} = Γ_i choice) against re-extracting over
// only the tasks active in each slot.
func BenchmarkAblationDominantPerSlot(b *testing.B) {
	in := workload.Default().Generate(rand.New(rand.NewSource(5)))
	p, err := core.NewProblem(in)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dominant.ExtractAll(in)
		}
	})
	b.Run("per-slot", func(b *testing.B) {
		// Active task lists per slot, shared across chargers.
		active := make([][]int, p.K)
		for k := 0; k < p.K; k++ {
			for _, t := range in.Tasks {
				if t.ActiveAt(k) {
					active[k] = append(active[k], t.ID)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ch := range in.Chargers {
				for k := 0; k < p.K; k++ {
					dominant.ExtractSubset(in, ch, active[k])
				}
			}
		}
	})
}
