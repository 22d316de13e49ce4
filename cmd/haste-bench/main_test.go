package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"haste/internal/workload"
)

// tinySizes shrink every workload so the whole suite runs in seconds.
func tinySizes() sizes {
	small := midScale()
	tcp := midScale()
	tcp.NumChargers, tcp.NumTasks = 6, 16
	return sizes{
		paper: small, paperPool: 3,
		fleet: workload.FleetScale(2000), fleetPool: 2,
		onlineMem: small, onlineMemPool: 2,
		onlineTCP: tcp, onlineTCPPool: 2,
		serveFig: small, serveWarm: 2,
		session:      workload.FleetScale(80),
		serveRate:    400,
		digestPrefix: 16,
	}
}

// TestWorkloadsSmoke runs every workload at tiny sizes, twice untraced and
// once traced, and holds each run to the benchmark's contract: exactly the
// metrics BENCHMARK.json declares for the mode, with their units; no
// failed op; the same output digest from every run of a seed, traced or
// not.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpec(sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rc := runConfig{seed: 3, seconds: 0.2, size: tinySizes()}
			var digests []string
			for _, trace := range []bool{false, false, true} {
				rc.trace = trace
				rec, err := runWorkload(w.name, w.run, rc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, rec.Correct, rec.Attempted, rec.Failed)
				}
				declared := sp.EndToEnd
				if trace {
					declared = sp.PerLayer
				}
				assertDeclared(t, rec, declared, !trace)
				assertResultLine(t, rec)
				digests = append(digests, rec.Digest)
			}
			if digests[0] == "" || digests[0] != digests[1] || digests[0] != digests[2] {
				t.Fatalf("digests of one seed differ: %q", digests)
			}
		})
	}
}

func assertDeclared(t *testing.T, rec *record, declared []specMetric, nonZero bool) {
	t.Helper()
	if len(rec.Metrics) != len(declared) {
		t.Fatalf("%d metrics emitted, %d declared", len(rec.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := rec.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Fatalf("metric %s (%s): emitted %+v", d.Name, d.Unit, m)
		}
		if math.IsNaN(m.Value) || m.Value < 0 || nonZero && m.Value == 0 {
			t.Fatalf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// assertResultLine checks the printed output: the record line, then a
// last line holding exactly the result keys.
func assertResultLine(t *testing.T, rec *record) {
	t.Helper()
	var out bytes.Buffer
	if err := writeRecord(&out, rec); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok || len(last) != 4 {
			t.Fatalf("last line keys %v, want exactly correct/attempted/failed/metrics", last)
		}
	}
	back, err := lastRecord(out.Bytes())
	if err != nil || back.Digest != rec.Digest {
		t.Fatalf("record line does not read back: %v", err)
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(data, n=4) on known inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 10.2, 10.3, 10.4}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{10, 10.1, 10.2, 10.3, 10.4}, "ok"},
		{"slower", []float64{12, 12.1, 12.2, 12.3, 12.4}, "worse"},
		{"noisy", []float64{5, 10, 15, 20, 25}, "unresolved"},
		{"noisy but faster everywhere", []float64{1, 2, 4, 6, 8}, "ok"},
	} {
		if got, _ := verdict(base, c.b, m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
