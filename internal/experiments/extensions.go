package experiments

import (
	"math"
	"math/rand"

	"haste/internal/baseline"
	"haste/internal/core"
	"haste/internal/emr"
	"haste/internal/report"
	"haste/internal/sim"
)

// Extension experiments: the ablation studies DESIGN.md §6 calls out, in
// the same runnable form as the paper figures (`haste run --fig ext-emr`).

// extEMR sweeps the EMR safety threshold and reports the utility/safety
// trade-off of the constrained scheduler against the unconstrained one.
func extEMR(o Options) (*report.Table, error) {
	o = o.normalize()
	fractions := []float64{1.0, 0.75, 0.5, 0.25, 0.1}
	tbl := report.NewTable("Ext — EMR safety threshold vs charging utility (constrained greedy)",
		"limit_frac_of_peak", "utility", "peak_emr", "pct_of_unconstrained")
	type point struct{ u, peak, pct float64 }
	acc := make([]point, len(fractions))
	for rep := 0; rep < o.Reps; rep++ {
		cfg := o.baseConfig()
		cfg.NumChargers, cfg.NumTasks = cfg.NumChargers/2, cfg.NumTasks/2
		cfg.FieldSide = 30
		in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
		p, err := core.NewProblem(in)
		if err != nil {
			return nil, err
		}
		grid := emr.Grid(cfg.FieldSide, 2.5)
		free := core.TabularGreedy(p, o.haste(1))
		audit := emr.Field{Points: grid, Gamma: 1, Limit: math.Inf(1)}
		peak, _ := audit.Audit(p, free.Schedule)
		for i, frac := range fractions {
			f := emr.Field{Points: grid, Gamma: 1, Limit: frac * peak}
			res := emr.ConstrainedGreedy(p, f)
			u, _ := emr.ExecuteOff(p, res.Schedule)
			gotPeak, _ := f.Audit(p, res.Schedule)
			acc[i].u += u
			acc[i].peak += gotPeak
			acc[i].pct += u / free.RUtility
		}
	}
	r := float64(o.Reps)
	for i, frac := range fractions {
		tbl.AddRow(frac, acc[i].u/r, acc[i].peak/r, 100*acc[i].pct/r)
	}
	return tbl, nil
}

// extAniso compares scheduling under the isotropic (paper) and
// anisotropic (future-work [57]) receiving models.
func extAniso(o Options) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable("Ext — anisotropic receiving gain vs the paper's isotropic model",
		"model", "HASTE_C1", "GreedyUtility")
	var isoH, isoG, anisoH, anisoG float64
	for rep := 0; rep < o.Reps; rep++ {
		for _, aniso := range []bool{false, true} {
			cfg := o.baseConfig()
			cfg.Params.AnisotropicGain = aniso
			in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
			p, err := core.NewProblem(in)
			if err != nil {
				return nil, err
			}
			h := sim.Execute(p, core.TabularGreedy(p, o.haste(1)).Schedule).Utility
			g := utilityOfBaseline(p)
			if aniso {
				anisoH += h
				anisoG += g
			} else {
				isoH += h
				isoG += g
			}
		}
	}
	r := float64(o.Reps)
	tbl.AddRow("isotropic", isoH/r, isoG/r)
	tbl.AddRow("anisotropic", anisoH/r, anisoG/r)
	return tbl, nil
}

// extSwitch compares the paper's fixed switching delay against the
// rotation-proportional extension across the ρ sweep.
func extSwitch(o Options) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable("Ext — fixed vs rotation-proportional switching delay",
		"rho", "fixed_HASTE_C1", "proportional_HASTE_C1", "fixed_switch_loss_slots", "prop_switch_loss_slots")
	for _, rho := range rhoSweep {
		var fixedU, propU, fixedLoss, propLoss float64
		for rep := 0; rep < o.Reps; rep++ {
			for _, prop := range []bool{false, true} {
				cfg := o.baseConfig()
				cfg.Params.Rho = rho
				cfg.Params.ProportionalSwitching = prop
				in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
				p, err := core.NewProblem(in)
				if err != nil {
					return nil, err
				}
				res := core.TabularGreedy(p, o.haste(1))
				out := sim.Execute(p, res.Schedule)
				// Slots of radiation lost to switching, measured as the
				// gap between relaxed and physical per-task energy.
				loss := res.RUtility - out.Utility
				if prop {
					propU += out.Utility
					propLoss += loss
				} else {
					fixedU += out.Utility
					fixedLoss += loss
				}
			}
		}
		r := float64(o.Reps)
		tbl.AddRow(rho, fixedU/r, propU/r, fixedLoss/r, propLoss/r)
	}
	return tbl, nil
}

func utilityOfBaseline(p *core.Problem) float64 {
	return sim.Execute(p, baseline.GreedyUtility(p)).Utility
}
