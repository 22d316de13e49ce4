package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/report"
	"haste/internal/sim"
	"haste/internal/stats"
	"haste/internal/workload"
)

// angleSweep is the x-axis the paper uses for Figs. 4/5/12/13.
var angleSweep = []float64{30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 330, 360}

func angleLabels() []string {
	out := make([]string, len(angleSweep))
	for i, a := range angleSweep {
		out[i] = fmt.Sprintf("%.0f", a)
	}
	return out
}

// rhoSweep is the x-axis for Figs. 6/14 (the paper sweeps ρ to a full
// slot).
var rhoSweep = []float64{0, 1.0 / 12, 0.25, 0.5, 0.75, 1}

func rhoLabels() []string {
	out := make([]string, len(rhoSweep))
	for i, r := range rhoSweep {
		out[i] = fmt.Sprintf("%.3f", r)
	}
	return out
}

func fig4(o Options) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable("Fig. 4 — A_s vs charging utility, centralized offline",
		"A_s_deg", "HASTE_C1", "HASTE_C4", "GreedyUtility", "GreedyCover")
	err := sweep4(o, angleLabels(), func(pt int, cfg *workload.Config) {
		cfg.Params.ChargeAngle = geom.Deg(angleSweep[pt])
	}, offlineUtilities, tbl, "A_s")
	return tbl, err
}

func fig5(o Options) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable("Fig. 5 — A_o vs charging utility, centralized offline",
		"A_o_deg", "HASTE_C1", "HASTE_C4", "GreedyUtility", "GreedyCover")
	err := sweep4(o, angleLabels(), func(pt int, cfg *workload.Config) {
		cfg.Params.ReceiveAngle = geom.Deg(angleSweep[pt])
	}, offlineUtilities, tbl, "A_o")
	return tbl, err
}

func fig6(o Options) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable("Fig. 6 — switching delay ρ vs charging utility, centralized offline",
		"rho", "HASTE_C1", "HASTE_C4", "GreedyUtility", "GreedyCover")
	err := sweep4(o, rhoLabels(), func(pt int, cfg *workload.Config) {
		cfg.Params.Rho = rhoSweep[pt]
	}, offlineUtilities, tbl, "rho")
	return tbl, err
}

// colorBoxPlot implements Figs. 7 and 15: distribution of the achieved
// utility per color count C.
func colorBoxPlot(o Options, title string, onlineMode bool) (*report.Table, error) {
	o = o.normalize()
	tbl := report.NewTable(title,
		"C", "min", "q1", "median", "q3", "max", "mean", "variance")
	for c := 1; c <= 8; c++ {
		var us []float64
		for rep := 0; rep < o.Reps; rep++ {
			cfg := o.baseConfig()
			seed := o.repSeed(c, rep)
			in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
			p, err := core.NewProblem(in)
			if err != nil {
				return nil, err
			}
			samples := o.Samples
			if samples == 0 && onlineMode {
				samples = 2 * c // keep the heavy online color sweep tractable
			}
			var u float64
			if onlineMode {
				if u, err = onlineRunUtility(p, o, c, samples, seed); err != nil {
					return nil, err
				}
			} else {
				res := core.TabularGreedy(p, core.Options{
					Colors: c, Samples: samples, PreferStay: true,
					Rng: rand.New(rand.NewSource(seed)), Workers: o.Workers,
					Trace: o.Trace,
				})
				u = sim.Execute(p, res.Schedule).Utility
			}
			us = append(us, u)
		}
		b, err := stats.Summarize(us)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(c, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.Variance)
	}
	return tbl, nil
}

func fig7(o Options) (*report.Table, error) {
	return colorBoxPlot(o, "Fig. 7 — color number C vs charging utility, centralized offline", false)
}

// energyDurationGrid implements Figs. 10 and 11: mean required energy Ē
// and mean task duration Δt̄ swept jointly; values drawn from
// [0.5·x, 1.5·x].
func energyDurationGrid(o Options, title string, onlineMode bool) (*report.Table, error) {
	o = o.normalize()
	energies := []float64{10e3, 20e3, 30e3, 40e3, 50e3} // Ē, joules
	durations := []int{30, 40, 50, 60, 70}              // Δt̄, slots
	if o.Quick {
		energies = []float64{10e3, 30e3, 50e3}
		durations = []int{10, 14, 18}
	}
	tbl := report.NewTable(title, "E_mean_kJ", "dur_mean_min", "HASTE_C1")
	point := 0
	for _, em := range energies {
		for _, dm := range durations {
			var sum float64
			for rep := 0; rep < o.Reps; rep++ {
				cfg := o.baseConfig()
				cfg.EnergyMin, cfg.EnergyMax = 0.5*em, 1.5*em
				cfg.DurationMin, cfg.DurationMax = dm/2, dm+dm/2
				seed := o.repSeed(point, rep)
				in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
				p, err := core.NewProblem(in)
				if err != nil {
					return nil, err
				}
				if onlineMode {
					u, err := onlineRunUtility(p, o, 1, 1, seed)
					if err != nil {
						return nil, err
					}
					sum += u
				} else {
					res := core.TabularGreedy(p, o.haste(1))
					sum += sim.Execute(p, res.Schedule).Utility
				}
			}
			tbl.AddRow(em/1e3, dm, sum/float64(o.Reps))
			point++
		}
	}
	return tbl, nil
}

func fig10(o Options) (*report.Table, error) {
	return energyDurationGrid(o, "Fig. 10 — Ē and Δt̄ vs charging utility, centralized offline", false)
}

// fig17: the insight experiment — task positions drawn from a 2D Gaussian
// with varying σ_x, σ_y; utility grows with placement uniformity.
func fig17(o Options) (*report.Table, error) {
	o = o.normalize()
	sigmas := []float64{2, 5, 10, 15, 20, 25}
	if o.Quick {
		sigmas = []float64{2, 10, 25}
	}
	tbl := report.NewTable("Fig. 17 — Gaussian placement variance vs overall charging utility",
		"sigma_x", "sigma_y", "HASTE_C1")
	point := 0
	for _, sx := range sigmas {
		for _, sy := range sigmas {
			var sum float64
			for rep := 0; rep < o.Reps; rep++ {
				cfg := o.baseConfig()
				cfg.NumTasks = 50 // §7.5 uses 50 tasks
				cfg.Placement = workload.Gaussian
				cfg.SigmaX, cfg.SigmaY = sx, sy
				in := cfg.Generate(rand.New(rand.NewSource(o.crnSeed(rep))))
				p, err := core.NewProblem(in)
				if err != nil {
					return nil, err
				}
				res := core.TabularGreedy(p, o.haste(1))
				sum += sim.Execute(p, res.Schedule).Utility
			}
			tbl.AddRow(sx, sy, sum/float64(o.Reps))
			point++
		}
	}
	return tbl, nil
}

// fig18: individual task utility versus its required energy E_j, with the
// ~1/E_j envelope the paper draws through the maxima.
func fig18(o Options) (*report.Table, error) {
	o = o.normalize()
	binWidth := 10e3 // joules
	maxE := 100e3
	if o.Quick {
		binWidth, maxE = 2e3, 10e3
	}
	nBins := int(maxE / binWidth)
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	maxs := make([]float64, nBins)   // mean over reps of the per-rep bin maximum
	repMax := make([]float64, nBins) // scratch: this rep's bin maxima
	envelopes := make([]float64, 0, o.Reps)
	for rep := 0; rep < o.Reps; rep++ {
		cfg := o.baseConfig()
		cfg.EnergyMin, cfg.EnergyMax = 5e3, maxE // §7.5: [5, 100] kJ
		if o.Quick {
			cfg.EnergyMin = 1e3
		}
		in := cfg.Generate(rand.New(rand.NewSource(o.repSeed(0, rep))))
		p, err := core.NewProblem(in)
		if err != nil {
			return nil, err
		}
		res := core.TabularGreedy(p, o.haste(1))
		out := sim.Execute(p, res.Schedule)
		for b := range repMax {
			repMax[b] = 0
		}
		repEnvelope := 0.0
		for j, tk := range in.Tasks {
			b := int(tk.Energy / binWidth)
			if b >= nBins {
				b = nBins - 1
			}
			u := out.PerTask[j]
			sums[b] += u
			counts[b]++
			if u > repMax[b] {
				repMax[b] = u
			}
			if u < 1 { // saturated tasks carry no 1/E information
				if c := u * tk.Energy; c > repEnvelope {
					repEnvelope = c
				}
			}
		}
		for b := range repMax {
			maxs[b] += repMax[b] / float64(o.Reps)
		}
		envelopes = append(envelopes, repEnvelope)
	}
	envelope := 0.0
	for _, e := range envelopes {
		envelope += e / float64(len(envelopes))
	}
	tbl := report.NewTable("Fig. 18 — individual charging utility vs required energy E_j",
		"E_bin_kJ", "mean_utility", "max_utility", "envelope_c_over_E")
	for b := 0; b < nBins; b++ {
		if counts[b] == 0 {
			continue
		}
		mid := (float64(b) + 0.5) * binWidth
		env := math.Min(1, envelope/mid)
		tbl.AddRow(mid/1e3, sums[b]/float64(counts[b]), maxs[b], env)
	}
	return tbl, nil
}
