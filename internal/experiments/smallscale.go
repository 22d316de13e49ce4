package experiments

import (
	"math"
	"math/rand"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/online"
	"haste/internal/opt"
	"haste/internal/report"
	"haste/internal/sim"
	"haste/internal/workload"
)

// smallScaleSweep implements Figs. 8 and 9: the §7.3.1 small-scale
// networks (5 chargers, 10 tasks, 10 m × 10 m) where the brute-force
// optimum is computable. Reported are the optimal HASTE-R utility, the
// centralized offline HASTE (C = 1 and C = 4), the distributed online
// HASTE-DO, and each algorithm's ratio to the optimum — the quantities
// behind the paper's claims that HASTE achieves ≥ 92.97 % (offline) and
// ≥ 88.63 % (online) of the optimum, versus the proven bounds
// (1−ρ)(1−1/e) ≈ 0.579 and ½(1−ρ)(1−1/e) ≈ 0.290.
func smallScaleSweep(o Options, title, xName string, sweepAs bool) (*report.Table, error) {
	o = o.normalize()
	angles := []float64{30, 60, 90, 120, 180, 240, 300, 360}
	if o.Quick {
		angles = []float64{60, 180, 360}
	}
	tbl := report.NewTable(title,
		xName, "OPT", "HASTE_C1", "HASTE_C4", "HASTE-DO", "ratio_C1", "ratio_DO")
	for point, a := range angles {
		var optSum, h1Sum, h4Sum, doSum float64
		valid := 0
		for rep := 0; rep < o.Reps; rep++ {
			cfg := workload.SmallScale()
			if sweepAs {
				cfg.Params.ChargeAngle = geom.Deg(a)
			} else {
				cfg.Params.ReceiveAngle = geom.Deg(a)
			}
			seed := o.repSeed(point, rep)
			in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
			p, err := core.NewProblem(in)
			if err != nil {
				return nil, err
			}
			sol, err := opt.Solve(p, opt.Options{MaxNodes: 30_000_000})
			if err != nil {
				continue // instance too large to certify; skip this rep
			}
			valid++
			optSum += sol.Utility
			r1 := core.TabularGreedy(p, o.haste(1))
			h1Sum += sim.Execute(p, r1.Schedule).Utility
			r4 := core.TabularGreedy(p, core.Options{
				Colors: 4, Samples: o.Samples, PreferStay: true,
				Rng: rand.New(rand.NewSource(seed)), Workers: o.Workers,
				Trace: o.Trace,
			})
			h4Sum += sim.Execute(p, r4.Schedule).Utility
			do, err := online.Run(p, o.online(1, 0, seed))
			if err != nil {
				return nil, err
			}
			doSum += do.Outcome.Utility
		}
		if valid == 0 {
			continue
		}
		f := 1 / float64(valid)
		optU, h1, h4, do := optSum*f, h1Sum*f, h4Sum*f, doSum*f
		r1, rdo := math.NaN(), math.NaN()
		if optU > 0 {
			r1, rdo = h1/optU, do/optU
		}
		tbl.AddRow(a, optU, h1, h4, do, r1, rdo)
	}
	return tbl, nil
}

func fig8(o Options) (*report.Table, error) {
	return smallScaleSweep(o, "Fig. 8 — A_s vs charging utility with optimum (small scale)", "A_s_deg", true)
}

func fig9(o Options) (*report.Table, error) {
	return smallScaleSweep(o, "Fig. 9 — A_o vs charging utility with optimum (small scale)", "A_o_deg", false)
}
