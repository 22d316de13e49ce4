// Command haste regenerates the paper's evaluation figures.
//
// Usage:
//
//	haste list
//	    Print the experiment index (figure IDs and titles).
//
//	haste run --fig fig4 [--reps N] [--seed S] [--samples N] [--workers N] [--csv] [--quick]
//	    Run one experiment and print its series as a table (or CSV).
//
//	haste run --all [flags]
//	    Run every experiment in order.
//
// The default repetition count (3 topologies per data point) keeps runs
// interactive; the paper averages 100 — pass --reps 100 to match. --quick
// shrinks the workloads for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"haste/internal/experiments"
	"haste/internal/netsim"
	"haste/internal/obs"
	"haste/internal/report"
	"haste/internal/transport"
)

// parseTransport maps the --transport flag onto a netsim.Factory: the
// in-memory engine (nil, the default) or the loopback TCP driver. The
// figures are bit-identical either way — that is the cross-driver
// equivalence contract (difftest.DriverSweep) — only wall-clock changes.
func parseTransport(s string) (netsim.Factory, error) {
	switch s {
	case "", "mem":
		return nil, nil
	case "tcp":
		return transport.Factory, nil
	}
	return nil, fmt.Errorf("unknown --transport %q (mem, tcp)", s)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "haste:", err)
			os.Exit(1)
		}
	case "gen":
		if err := genCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "haste:", err)
			os.Exit(1)
		}
	case "eval":
		if err := evalCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "haste:", err)
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "haste: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fig := fs.String("fig", "", "experiment ID to run (see `haste list`)")
	all := fs.Bool("all", false, "run every experiment")
	reps := fs.Int("reps", 0, "topologies per data point (default 3; paper uses 100)")
	seed := fs.Int64("seed", 1, "base RNG seed")
	samples := fs.Int("samples", 0, "Monte-Carlo color samples for C>1 (0 = default)")
	workers := fs.Int("workers", 0, "component-pool bound of sharded solves (0 = one per CPU, 1 = sequential; figures are identical either way)")
	transportName := fs.String("transport", "mem", "online negotiation substrate: mem or tcp (figures are identical either way)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	format := fs.String("format", "", "output format: text (default), csv, or markdown")
	outDir := fs.String("out", "", "write each experiment to <dir>/<id>.<ext> instead of stdout")
	quick := fs.Bool("quick", false, "shrink workloads for a fast smoke run")
	summary := fs.Bool("summary", false, "append the paper-style headline claims under each table")
	trace := fs.Bool("trace", false, "record solve phase spans and print a per-phase summary on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("--cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("--cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "haste: --memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "haste: --memprofile:", err)
			}
		}()
	}
	transportFactory, err := parseTransport(*transportName)
	if err != nil {
		return err
	}
	opts := experiments.Options{
		Reps: *reps, Seed: *seed, Samples: *samples, Quick: *quick,
		Workers: *workers, Transport: transportFactory,
	}
	fmtName := *format
	if fmtName == "" {
		fmtName = "text"
		if *csv {
			fmtName = "csv"
		}
	}
	if fmtName != "text" && fmtName != "csv" && fmtName != "markdown" {
		return fmt.Errorf("unknown --format %q (text, csv, markdown)", fmtName)
	}

	var todo []experiments.Experiment
	if *all {
		todo = experiments.All()
	} else if *fig != "" {
		e, err := experiments.ByID(*fig)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	} else {
		return fmt.Errorf("pass --fig <id> or --all")
	}

	for _, e := range todo {
		start := time.Now()
		eopts := opts
		if *trace {
			// One trace per experiment so the aggregated summary reads
			// per-figure; the forest of every solve folds into phase paths.
			eopts.Trace = obs.New()
		}
		tbl, err := e.Run(eopts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if eopts.Trace != nil {
			fmt.Fprintf(os.Stderr, "trace summary (%s):\n", e.ID)
			obs.WriteSummary(os.Stderr, eopts.Trace.Tree())
		}
		w := io.Writer(os.Stdout)
		var f *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			ext := map[string]string{"text": "txt", "csv": "csv", "markdown": "md"}[fmtName]
			f, err = os.Create(filepath.Join(*outDir, e.ID+"."+ext))
			if err != nil {
				return err
			}
			w = f
		}
		if err := emit(w, tbl, fmtName); err != nil {
			return err
		}
		if *summary && fmtName != "csv" {
			for _, line := range experiments.Summarize(tbl) {
				fmt.Fprintln(w, "  »", line)
			}
		}
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("%s → %s (%v)\n", e.ID, f.Name(), time.Since(start).Round(time.Millisecond))
		} else if fmtName == "text" {
			fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

func emit(w io.Writer, tbl *report.Table, format string) error {
	switch format {
	case "csv":
		return tbl.WriteCSV(w)
	case "markdown":
		return tbl.WriteMarkdown(w)
	default:
		return tbl.WriteText(w)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `haste — reproduce the HASTE paper's evaluation figures

commands:
  haste list                      print the experiment index
  haste run --fig fig4 [flags]    run one experiment
  haste run --all [flags]         run everything
  haste gen --out field.json      generate an instance file
  haste eval --instance f.json    run every scheduler on a saved instance

flags for run:
  --reps N        topologies per data point (default 3, paper: 100)
  --seed S        base RNG seed (default 1)
  --samples N     Monte-Carlo color samples for C>1 (0 = algorithm default)
  --workers N     component-pool bound of sharded solves (0 = one per CPU,
                  1 = sequential; monolithic solves ignore it; every value
                  regenerates bit-identical figures)
  --transport T   online negotiation substrate: mem (default) or tcp —
                  loopback sockets, one TCP connection per charger
                  (every substrate regenerates bit-identical figures)
  --format F      text (default), csv, or markdown
  --out DIR       write each experiment to DIR/<id>.<ext>
  --summary       append the paper-style headline claims
  --csv           shorthand for --format csv
  --quick         shrink workloads for a fast smoke run
  --trace         print a per-phase timing summary on stderr (also on eval,
                  where it prints the full phase tree of each solve)
  --cpuprofile F  write a pprof CPU profile of the run to F
  --memprofile F  write a pprof heap profile at exit to F
                  (inspect either with "go tool pprof F")`)
}
