package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract: every run emits exactly the end-to-end
// metrics (untraced) or exactly the per-layer metrics (--trace 1), and
// BENCHMARK.json must declare the same names and units (checkSpec).
type metricDef struct {
	Name, Unit string
}

// endToEnd metrics are what a user of the library, the service or the
// negotiation pays. Every workload reports every one of them, and none of
// them is ever 0 on a run whose ops succeed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib_per_op", "MiB"},
	{"allocs_per_op", "count"},
}

// perLayer metrics come from the traced run. Layer time is reported as a
// share of traced op wall time (spans summed by phase, divided by the
// summed op latency), so a layer a workload bypasses reads 0 without a
// zero-valued time; bench.traced_op_ms converts a share back to
// milliseconds. Work counts come from a deterministic pass over the
// workload's fixed instance pool and repeat exactly for a seed.
var perLayer = []metricDef{
	{"bench.traced_op_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.gen_lag_p99_over_gap", "ratio"},
	{"core.compile_share", "ratio"},
	{"core.compile.grid_build_share", "ratio"},
	{"core.compile.slot_energy_rows_share", "ratio"},
	{"core.compile.dominant_extract_share", "ratio"},
	{"core.compile.kernel_compile_share", "ratio"},
	{"core.compile.alloc_mib", "MiB"},
	{"core.solve_share", "ratio"},
	{"core.solve.greedy_share", "ratio"},
	{"core.solve.evaluate_share", "ratio"},
	{"core.solve.decompose_share", "ratio"},
	{"core.solve.component.greedy_share", "ratio"},
	{"core.solve.stitch_share", "ratio"},
	{"core.solve.shards", "count"},
	{"core.kernel.visited_over_offered", "ratio"},
	{"core.warm.reused_over_shards", "ratio"},
	{"sim.execute_share", "ratio"},
	{"serve.decode_share", "ratio"},
	{"serve.acquire_slot_share", "ratio"},
	{"serve.resolve_hit_share", "ratio"},
	{"serve.resolve_miss_share", "ratio"},
	{"serve.delta_patch_share", "ratio"},
	{"serve.http_overhead_share", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.status_non2xx", "count"},
	{"online.rounds_per_op", "count"},
	{"online.messages_per_op", "count"},
	{"online.negotiations_per_op", "count"},
	{"online.rounds_per_s", "1/s"},
	{"netsim.driver_run_share", "ratio"},
	{"transport.tcp_over_mem", "ratio"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_cycles_per_op", "count"},
}

// sharePaths maps a per-layer share metric to the span path it sums.
// Paths are slash-joined span names from the roots down: core's own
// "compile" and "solve" trees, serve's request phases (resolve_problem
// split by its cache_hit attribute), and the benchmark's spans around
// sim.Execute and the negotiation driver.
var sharePaths = []struct{ metric, path string }{
	{"core.compile_share", "compile"},
	{"core.compile.grid_build_share", "compile/grid_build"},
	{"core.compile.slot_energy_rows_share", "compile/slot_energy_rows"},
	{"core.compile.dominant_extract_share", "compile/dominant_extract"},
	{"core.compile.kernel_compile_share", "compile/kernel_compile"},
	{"core.solve_share", "solve"},
	{"core.solve.greedy_share", "solve/greedy"},
	{"core.solve.evaluate_share", "solve/evaluate"},
	{"core.solve.decompose_share", "solve/decompose"},
	{"core.solve.component.greedy_share", "solve/component/greedy"},
	{"core.solve.stitch_share", "solve/stitch"},
	{"sim.execute_share", "sim.Execute"},
	{"serve.decode_share", "decode"},
	{"serve.acquire_slot_share", "acquire_slot"},
	{"serve.resolve_hit_share", "resolve_problem[hit]"},
	{"serve.resolve_miss_share", "resolve_problem[miss]"},
	{"serve.delta_patch_share", "delta_patch"},
	{"netsim.driver_run_share", "online.Run/netsim.Driver.Run"},
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark spec (run from the repository root or pass --spec): %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// checkSpec fails when BENCHMARK.json and the code disagree on a
// workload, a metric, a unit or the run length, so neither can drift
// from the other unnoticed.
func checkSpec(s *spec) error {
	if s.RunSeconds != defaultSeconds {
		return fmt.Errorf("BENCHMARK.json run_seconds = %d, the benchmark's default is %d", s.RunSeconds, defaultSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	if err := sameMetrics("end_to_end", s.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameMetrics("per_layer", s.PerLayer, perLayer)
}

func sameMetrics(key string, declared []specMetric, emitted []metricDef) error {
	if len(declared) != len(emitted) {
		return fmt.Errorf("BENCHMARK.json %s declares %d metrics, the benchmark emits %d", key, len(declared), len(emitted))
	}
	for i, d := range declared {
		if d.Name != emitted[i].Name || d.Unit != emitted[i].Unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), the benchmark emits %s (%s)",
				key, i, d.Name, d.Unit, emitted[i].Name, emitted[i].Unit)
		}
	}
	return nil
}
