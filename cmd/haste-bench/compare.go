package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// runCompare is `haste-bench compare A.json… -- B.json…`: the files hold
// benchmark outputs (their record lines), side A the base, side B the
// change. For every workload × end-to-end metric it prints each side's
// median and quartiles and a verdict against the metric's bound in
// BENCHMARK.json:
//
//   - worse: B's median is worse than A's by more than the bound;
//   - unresolved: a side's quartile spread, as a share of its median, is
//     wider than the bound — unless every B run beats every A run;
//   - ok: otherwise.
//
// Records of the same workload and seed must carry the same digest on
// both sides. The exit status is 1 on any worse verdict or digest
// mismatch.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("haste-bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sides [2][]string
	side := 0
	for _, a := range fs.Args() {
		if a == "--" && side == 0 {
			side = 1
			continue
		}
		sides[side] = append(sides[side], a)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(stderr, "usage: haste-bench compare [--spec BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "haste-bench:", err)
		return 2
	}
	var recs [2][]*record
	for s, paths := range sides {
		for _, path := range paths {
			out, err := os.ReadFile(path)
			var rs []*record
			if err == nil {
				rs, err = readRecords(out)
			}
			if err != nil {
				fmt.Fprintf(stderr, "haste-bench: %s: %v\n", path, err)
				return 2
			}
			for _, r := range rs {
				if r.Trace == 0 {
					recs[s] = append(recs[s], r)
				}
			}
		}
	}

	failed := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(recs[0], w.Name, m.Name), values(recs[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, change := verdict(a, b, m)
			if v == "worse" {
				failed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, summary(a), summary(b), 100*change, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "haste-bench:", err)
		return 1
	}
	for _, msg := range digestMismatches(recs[0], recs[1]) {
		fmt.Fprintln(stdout, msg)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

func values(recs []*record, workload, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	sort.Float64s(v)
	return v
}

// verdict judges sorted samples b against a under the metric's direction
// and bound; change is B's median relative to A's, positive when worse.
func verdict(a, b []float64, m specMetric) (string, float64) {
	medA, medB := median(a), median(b)
	change := (medB - medA) / medA
	if m.Better == "higher" {
		change = -change
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		better := a[0] > b[len(b)-1] // every B run below every A run
		if m.Better == "higher" {
			better = b[0] > a[len(a)-1]
		}
		if better {
			return "ok", change
		}
		return "unresolved", change
	}
	if change > m.Bound {
		return "worse", change
	}
	return "ok", change
}

// quartiles are the first and third quartiles of sorted samples by the
// method of Python's statistics.quantiles(data, n=4) (exclusive), the
// spread the acceptance rule for this benchmark is stated in.
func quartiles(s []float64) (q1, q3 float64) {
	if len(s) == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func spread(s []float64) float64 {
	q1, q3 := quartiles(s)
	return (q3 - q1) / median(s)
}

func summary(s []float64) string {
	q1, q3 := quartiles(s)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(s), q1, q3, len(s))
}

// digestMismatches reports workloads whose runs of one seed produced
// different outputs on the two sides.
func digestMismatches(a, b []*record) []string {
	type key struct {
		workload string
		seed     int64
	}
	seen := make(map[key]string)
	for _, r := range a {
		if r.Digest != "" {
			seen[key{r.Workload, r.Seed}] = r.Digest
		}
	}
	var out []string
	for _, r := range b {
		if d, ok := seen[key{r.Workload, r.Seed}]; ok && r.Digest != "" && d != r.Digest {
			out = append(out, fmt.Sprintf("digest mismatch: %s seed %d: A %.12s, B %.12s", r.Workload, r.Seed, d, r.Digest))
		}
	}
	return out
}
