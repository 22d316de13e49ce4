package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"haste/internal/baseline"
	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/obs"
	"haste/internal/online"
	"haste/internal/report"
	"haste/internal/sim"
	"haste/internal/workload"
)

// genCmd implements `haste gen`: generate a random instance and write it
// as a JSON file (or stdout) for later evaluation or hand editing.
func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	chargers := fs.Int("chargers", 50, "number of chargers (paper default 50)")
	tasks := fs.Int("tasks", 200, "number of tasks (paper default 200)")
	field := fs.Float64("field", 50, "square field side in meters")
	seed := fs.Int64("seed", 1, "RNG seed")
	small := fs.Bool("small", false, "use the §7.3.1 small-scale setup instead")
	gaussian := fs.Float64("gaussian", 0, "if > 0, Gaussian task placement with this σ")
	clusters := fs.Int("clusters", 0, "if > 0, clustered placement with this many isolated clusters")
	fleet := fs.Int("fleet", 0, "if > 0, the beyond-paper-scale clustered fleet with this many tasks (overrides the shape flags); the TabularGreedy runs (`haste eval`, /v1/schedule) shard it and compile only the fleet's components, at any size — `haste eval` also runs the baselines and the simulator, which build the whole field's policies, and the online protocol; they dominate beyond ~10⁴ tasks")
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := workload.Default()
	if *small {
		cfg = workload.SmallScale()
	} else {
		cfg.NumChargers = *chargers
		cfg.NumTasks = *tasks
		cfg.FieldSide = *field
	}
	if *gaussian > 0 {
		cfg.Placement = workload.Gaussian
		cfg.SigmaX, cfg.SigmaY = *gaussian, *gaussian
	}
	if *clusters > 0 {
		cfg.Placement = workload.Clustered
		cfg.NumClusters = *clusters
	}
	if *fleet > 0 {
		cfg = workload.FleetScale(*fleet)
	}
	in := cfg.Generate(rand.New(rand.NewSource(*seed)))
	comment := fmt.Sprintf("generated by `haste gen` (seed %d)", *seed)
	if *out == "" {
		return instio.Save(os.Stdout, in, comment)
	}
	if err := instio.SaveFile(*out, in, comment); err != nil {
		return err
	}
	fmt.Printf("wrote %d chargers / %d tasks to %s\n", len(in.Chargers), len(in.Tasks), *out)
	return nil
}

// evalCmd implements `haste eval`: run every scheduler on a saved
// instance and print the comparison.
func evalCmd(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	path := fs.String("instance", "", "instance JSON produced by `haste gen` (required)")
	seed := fs.Int64("seed", 1, "RNG seed for color sampling")
	colors := fs.Int("colors", 4, "TabularGreedy color count for the C>1 runs")
	csv := fs.Bool("csv", false, "emit CSV")
	trace := fs.Bool("trace", false, "record compile and solve phase spans and print the phase tree on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("pass --instance <file> (create one with `haste gen`)")
	}
	in, err := instio.LoadFile(*path)
	if err != nil {
		return err
	}
	var tr *obs.Trace
	if *trace {
		tr = obs.New()
	}
	p, err := core.NewProblemTraced(in, tr)
	if err != nil {
		return err
	}

	tbl := report.NewTable(
		fmt.Sprintf("evaluation of %s (%d chargers, %d tasks, %d slots)",
			*path, len(in.Chargers), len(in.Tasks), p.K),
		"algorithm", "utility", "relaxed", "switches", "messages")

	addOffline := func(name string, s core.Schedule, relaxed float64) {
		out := sim.Execute(p, s)
		tbl.AddRow(name, out.Utility, relaxed, out.Switches, "-")
	}
	opt1 := core.DefaultOptions(1)
	opt1.Trace = tr
	r1 := core.TabularGreedy(p, opt1)
	addOffline("HASTE offline C=1", r1.Schedule, r1.RUtility)
	rc := core.TabularGreedy(p, core.Options{
		Colors: *colors, PreferStay: true, Rng: rand.New(rand.NewSource(*seed)),
		Trace: tr,
	})
	addOffline(fmt.Sprintf("HASTE offline C=%d", *colors), rc.Schedule, rc.RUtility)
	addOffline("GreedyUtility", baseline.GreedyUtility(p), core.Evaluate(p, baseline.GreedyUtility(p)))
	addOffline("GreedyCover", baseline.GreedyCover(p), core.Evaluate(p, baseline.GreedyCover(p)))

	on, err := online.Run(p, online.Options{Colors: 1, Seed: *seed})
	if err != nil {
		return err
	}
	tbl.AddRow("HASTE online C=1", on.Outcome.Utility, "-", on.Outcome.Switches, on.Stats.TotalMessages())

	if tr != nil {
		// The forest holds the compile root plus one solve root per HASTE
		// run, in execution order.
		fmt.Fprintln(os.Stderr, "phase tree:")
		obs.WriteTable(os.Stderr, tr.Tree())
	}
	if *csv {
		return tbl.WriteCSV(os.Stdout)
	}
	return tbl.WriteText(os.Stdout)
}
