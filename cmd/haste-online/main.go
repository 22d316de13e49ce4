// Command haste-online demonstrates the distributed online scheduler on a
// randomly generated arrival trace: it prints each arrival batch with the
// negotiation it triggered (control messages, rounds), then the executed
// orientation timeline of a few chargers and the final per-task utilities.
//
// Usage:
//
//	haste-online [--chargers N] [--tasks M] [--seed S] [--colors C] [--field F]
//	             [--transport mem|tcp] [--drop P] [--dup P] [--delay P] [--crash P]
//	             [--reliable]
//
// The --drop/--dup/--delay/--crash flags inject seeded network failures
// into the negotiation (see package netsim for the failure model);
// --reliable turns on the commit-reliability layer. When any failure
// mode is active the demo also prints the degradation accounting.
// --transport tcp carries every negotiation over loopback TCP sockets
// (one connection per charger, package transport) instead of the
// in-memory engine; the schedule and every counter are bit-identical —
// the cross-driver equivalence contract — only wall-clock time changes.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/report"
	"haste/internal/transport"
	"haste/internal/viz"
	"haste/internal/workload"
)

func main() {
	chargers := flag.Int("chargers", 12, "number of chargers")
	tasks := flag.Int("tasks", 40, "number of charging tasks")
	field := flag.Float64("field", 30, "square field side, meters")
	seed := flag.Int64("seed", 1, "RNG seed")
	colors := flag.Int("colors", 1, "TabularGreedy color count C")
	showMap := flag.Bool("map", false, "render an ASCII field map with the final orientations")
	drop := flag.Float64("drop", 0, "per-delivery message drop probability")
	dup := flag.Float64("dup", 0, "per-delivery message duplication probability")
	delay := flag.Float64("delay", 0, "per-delivery bounded-delay probability")
	crash := flag.Float64("crash", 0, "per-node per-round crash probability")
	reliable := flag.Bool("reliable", false, "enable the commit-reliability layer (acked, retransmitted UPDs)")
	transportName := flag.String("transport", "mem",
		"negotiation substrate: mem (in-memory netsim) or tcp (loopback sockets, one TCP connection per charger)")
	flag.Parse()

	var driver netsim.Factory
	switch *transportName {
	case "mem":
	case "tcp":
		driver = transport.Factory
	default:
		fmt.Fprintf(os.Stderr, "haste-online: unknown --transport %q (mem, tcp)\n", *transportName)
		os.Exit(2)
	}

	cfg := workload.Default()
	cfg.NumChargers = *chargers
	cfg.NumTasks = *tasks
	cfg.FieldSide = *field
	cfg.DurationMin, cfg.DurationMax = 6, 30
	cfg.ReleaseMax = 20
	cfg.EnergyMin, cfg.EnergyMax = 2e3, 8e3

	in := cfg.Generate(rand.New(rand.NewSource(*seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haste-online:", err)
		os.Exit(1)
	}

	fmt.Printf("online HASTE demo: %d chargers, %d tasks, %d time slots, τ=%d, ρ=%.3f, C=%d, transport=%s\n\n",
		*chargers, *tasks, p.K, in.Params.Tau, in.Params.Rho, *colors, *transportName)

	opt := online.Options{
		Colors:    *colors,
		Seed:      *seed,
		DropRate:  *drop,
		DupRate:   *dup,
		DelayRate: *delay,
		CrashRate: *crash,
		Reliable:  *reliable,
		Driver:    driver,
	}
	res, err := online.Run(p, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haste-online:", err)
		os.Exit(1)
	}

	fmt.Println("arrival-triggered negotiations:")
	for _, n := range res.Stats.Negotiations {
		fmt.Printf("  slot %3d: %2d new task(s) → %3d sessions, %5d messages, %4d rounds\n",
			n.Slot, n.NewTasks, n.Sessions, n.Messages, n.Rounds)
	}
	fmt.Printf("total: %d messages, %d rounds, %d dropped\n",
		res.Stats.TotalMessages(), res.Stats.TotalRounds(), res.Stats.Net.Dropped)
	if *drop > 0 || *dup > 0 || *delay > 0 || *crash > 0 || *reliable {
		net := res.Stats.Net
		fmt.Printf("failure injection: %d attempted, %d dropped, %d duplicated, %d delayed, %d crashes, %d crash-lost, %d expired\n",
			net.Attempted, net.Dropped, net.Duplicated, net.Delayed, net.Crashes, net.CrashLost, net.Expired)
		fmt.Printf("degradation: %d non-quiescent sessions, %d unacked commits, %d retransmits\n",
			res.Stats.NonQuiescentSessions, res.Stats.UnackedCommits, res.Stats.Retransmits)
	}
	fmt.Println()

	fmt.Println("orientation timeline (first 4 chargers, '·' = unoriented):")
	show := 4
	if show > len(res.Orientations) {
		show = len(res.Orientations)
	}
	for i := 0; i < show; i++ {
		fmt.Printf("  charger %2d: ", i)
		for k := 0; k < p.K && k < 48; k++ {
			if math.IsNaN(res.Orientations[i][k]) {
				fmt.Print("  · ")
			} else {
				fmt.Printf("%3.0f°", geom.ToDeg(res.Orientations[i][k]))
			}
		}
		fmt.Println()
	}
	fmt.Println()

	tbl := report.NewTable("per-task outcome", "task", "E_required_J", "E_harvested_J", "utility")
	for j, t := range in.Tasks {
		if j >= 15 {
			tbl.AddRow("…", "", "", "")
			break
		}
		tbl.AddRow(j, t.Energy, res.Outcome.Energy[j], res.Outcome.PerTask[j])
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "haste-online:", err)
		os.Exit(1)
	}
	fmt.Printf("\noverall charging utility: %.4f (of %.4f max), %d orientation switches\n",
		res.Outcome.Utility, in.TotalWeight(), res.Outcome.Switches)

	if *showMap {
		// Resolve each charger's last effective orientation for the map.
		final := make([]float64, len(in.Chargers))
		for i := range final {
			final[i] = math.NaN()
			for k := 0; k < p.K; k++ {
				if !math.IsNaN(res.Orientations[i][k]) {
					final[i] = res.Orientations[i][k]
				}
			}
		}
		fmt.Println("\nfield map (final orientations):")
		if err := viz.FieldMap(os.Stdout, in, final, 72); err != nil {
			fmt.Fprintln(os.Stderr, "haste-online:", err)
			os.Exit(1)
		}
	}
}
