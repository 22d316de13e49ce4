// Command haste-bench is the benchmark of this repository. It runs seeded
// workloads against the public entry points of core, sim, online (over
// the in-memory and the loopback-TCP drivers) and serve, checks every
// output, and prints the end-to-end metrics — or, with --trace 1, the
// per-layer metrics — as the last line of standard output, one JSON
// object. BENCHMARK.json at the repository root declares the workloads,
// the metrics with their units and regression bounds, and the run length.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cmd/haste-bench/run.sh                       # every workload, one child process each
//	bash cmd/haste-bench/run.sh --workload paper-c4 --seed 1 --seconds 20 --trace 0
//	bash cmd/haste-bench/run.sh compare base*.json -- new*.json
//
// See README.md next to this file for the workloads, the metrics and the
// layer-to-metric map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"haste/internal/workload"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds must agree.
const defaultSeconds = 20

// workloads run in this order; BENCHMARK.json lists them in the same.
var workloads = []struct {
	name string
	run  func(runConfig) (*report, error)
}{
	{"paper-c4", runPaperC4},
	{"fleet-1e5", runFleet},
	{"serve-mixed", runServeMixed},
	{"online-mem", runOnlineMem},
	{"online-tcp", runOnlineTCP},
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	size    sizes
}

// sizes are the inputs of every workload. The benchmark always runs
// fullSizes; the smoke test shrinks them.
type sizes struct {
	full bool // the benchmark's own sizes, for which digests are recorded

	paper     workload.Config
	paperPool int
	fleet     workload.Config
	fleetPool int

	onlineMem     workload.Config
	onlineMemPool int
	onlineTCP     workload.Config
	onlineTCPPool int

	serveFig     workload.Config // the schedule requests' instances
	serveWarm    int             // distinct warm instances
	session      workload.Config // the session instances
	serveRate    float64         // open-loop arrivals per second
	digestPrefix int             // requests folded into the serve digest

	setupBudget time.Duration
}

// midScale is the negotiation instance of BenchmarkOnlineRun: 12
// chargers and 40 tasks of the §7.1 field, short windows, early releases.
func midScale() workload.Config {
	c := workload.Default()
	c.NumChargers, c.NumTasks = 12, 40
	c.DurationMin, c.DurationMax = 5, 20
	c.ReleaseMax = 10
	return c
}

// halfPaper is the §7.1 field and its 50 chargers with half the tasks:
// a negotiation of about 27k rounds, short enough that one run averages
// over dozens of instances.
func halfPaper() workload.Config {
	c := workload.Default()
	c.NumTasks = 100
	return c
}

// fullSizes are the benchmark's inputs. Instance cost varies a lot within
// a workload (a few §7.1 instances clear the per-step worker pool's
// threshold and cost several times the rest), so the pools are as large
// as one run can cover at least once: a run then averages over enough
// instances that another seed reads the same.
func fullSizes() sizes {
	return sizes{
		full:  true,
		paper: workload.Default(), paperPool: 256,
		fleet: workload.FleetScale(100_000), fleetPool: 4,
		onlineMem: halfPaper(), onlineMemPool: 48,
		onlineTCP: midScale(), onlineTCPPool: 64,
		serveFig: workload.Default(), serveWarm: 8,
		session:      workload.FleetScale(200),
		serveRate:    80,
		digestPrefix: 256,
		setupBudget:  3 * time.Second,
	}
}

// report is what a workload run measured.
type report struct {
	attempted, failed int64
	metrics           map[string]float64 // contract metrics by name
	extra             map[string]float64 // printed for people, not declared
	digest            string             // outputs of the run's fixed inputs; "" if not all ran
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), extra: make(map[string]float64)}
}

// zero records per-layer metrics of layers the workload bypasses.
func (r *report) zero(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run, printed on the line before the
// result and read back by compare.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	Digest     string             `json:"digest"`
	Extra      map[string]float64 `json:"extra"`
	Provenance provenance         `json:"provenance"`
	result
}

type provenance struct {
	NumCPU      int      `json:"num_cpu"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	CPUModel    string   `json:"cpu_model"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	VCSRevision string   `json:"vcs_revision"`
	VCSModified string   `json:"vcs_modified"`
	Args        []string `json:"args"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("haste-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed every input is drawn from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	specPath := fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "haste-bench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err == nil {
		err = checkSpec(sp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "haste-bench:", err)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSizes()}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *name {
			rec, err := runWorkload(w.name, w.run, rc, args)
			if err != nil {
				fmt.Fprintf(stderr, "haste-bench: %s: %v\n", w.name, err)
				return 1
			}
			writeReport(stderr, rec)
			if err := writeRecord(stdout, rec); err != nil {
				fmt.Fprintln(stderr, "haste-bench:", err)
				return 1
			}
			if !rec.Correct {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "haste-bench: unknown workload %q\n", *name)
	return 2
}

// runWorkload runs one workload in this process and assembles its record:
// exactly the declared metrics of the run's mode, and correct only when
// no op failed and, at the benchmark's own sizes and seed 1, the digest
// matches the recorded one.
func runWorkload(name string, fn func(runConfig) (*report, error), rc runConfig, args []string) (*record, error) {
	rep, err := fn(rc)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	rec := &record{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds, Trace: boolIndex(rc.trace),
		Digest: rep.digest, Extra: rep.extra, Provenance: readProvenance(args),
		result: result{
			Correct:   rep.failed == 0 && rep.attempted > 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   make(map[string]metricValue, len(defs)),
		},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Correct = false
			v = -1 // JSON has no NaN or Inf; the run is already marked incorrect
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for k, v := range rec.Extra {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Extra[k] = -1
		}
	}
	if want := expectedDigests[name]; rc.size.full && rc.seed == 1 && rep.digest != "" && rep.digest != want {
		fmt.Fprintf(os.Stderr, "haste-bench: %s: output digest %q, recorded %q\n", name, rep.digest, want)
		rec.Correct = false
	}
	return rec, nil
}

func writeRecord(w io.Writer, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, last)
	return err
}

// writeReport prints the run for a person: every metric with its unit,
// the extras, the digest and the check counts.
func writeReport(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s  seed=%d  seconds=%g  trace=%d  attempted=%d  failed=%d  correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	extras := make([]string, 0, len(rec.Extra))
	for n := range rec.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Fprintf(w, "  (%s %.6g)\n", n, rec.Extra[n])
	}
	fmt.Fprintf(w, "  digest %s\n", rec.Digest)
}

// runAll runs every workload in its own child process, so heap and
// garbage-collector state never carry from one workload into the next,
// and prints each child's record followed by one combined result line.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "haste-bench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		rec, err := lastRecord(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "haste-bench: %s: %v (exit: %v)\n", w.name, err, runErr)
			total.Correct = false
			continue
		}
		if err := writeRecord(stdout, rec); err != nil {
			fmt.Fprintln(stderr, "haste-bench:", err)
			return 1
		}
		total.Correct = total.Correct && rec.Correct && runErr == nil
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		for n, v := range rec.Metrics {
			total.Metrics[w.name+"."+n] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "haste-bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// readRecords returns every record line of a benchmark output.
func readRecords(out []byte) ([]*record, error) {
	var recs []*record
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if !bytes.HasPrefix(line, []byte(`{"workload"`)) {
			continue
		}
		rec := new(record)
		if err := json.Unmarshal(line, rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

func lastRecord(out []byte) (*record, error) {
	recs, err := readRecords(out)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("no result record in the output")
	}
	return recs[len(recs)-1], nil
}

func readProvenance(args []string) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		VCSRevision: "unknown", VCSModified: "unknown", Args: args,
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}
