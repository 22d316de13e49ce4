package difftest

import (
	"strings"
	"testing"

	"haste/internal/core"
)

func TestSweepCoversTheRequiredAxes(t *testing.T) {
	cases := Sweep()
	if len(cases) < 8 {
		t.Fatalf("sweep has %d cases, want a real grid", len(cases))
	}
	names := map[string]bool{}
	colors := map[int]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
		colors[c.Colors] = true
		if c.Chargers < 1 || c.Tasks < 1 || c.Seed == 0 {
			t.Errorf("case %s underspecified: %+v", c.Name, c)
		}
	}
	for _, want := range []int{1, 2, 4} {
		if !colors[want] {
			t.Errorf("sweep never exercises C=%d", want)
		}
	}
}

func TestCaseProblemIsSeededDeterministically(t *testing.T) {
	c := Sweep()[0]
	p1, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.In.Tasks) != len(p2.In.Tasks) || p1.K != p2.K {
		t.Fatalf("same case generated different instances: K %d vs %d", p1.K, p2.K)
	}
	for j := range p1.In.Tasks {
		if p1.In.Tasks[j] != p2.In.Tasks[j] {
			t.Fatalf("task %d differs between generations", j)
		}
	}
}

func TestCompareResultsReportsTheDivergentCell(t *testing.T) {
	a := core.Result{Schedule: core.NewSchedule(2, 3)}
	b := core.Result{Schedule: core.NewSchedule(2, 3)}
	b.Schedule.Policy[1][2] = 5
	err := CompareResults(a, b)
	if err == nil {
		t.Fatal("divergence not reported")
	}
	if !strings.Contains(err.Error(), "charger 1 slot 2") {
		t.Errorf("error does not name the cell: %v", err)
	}

	b = core.Result{Schedule: core.NewSchedule(2, 3), RUtility: 1}
	if err := CompareResults(a, b); err == nil || !strings.Contains(err.Error(), "RUtility") {
		t.Errorf("utility divergence not reported: %v", err)
	}

	if err := CompareResults(a, core.Result{Schedule: core.NewSchedule(3, 3)}); err == nil {
		t.Error("shape mismatch not reported")
	}
}

func TestRunPassesOnTheFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep runs in internal/core's differential suite")
	}
	for _, c := range Sweep()[:3] {
		if err := Run(c, Variants()); err != nil {
			t.Error(err)
		}
	}
}

// A case whose instance has no chargeable pair compares all-Idle
// schedules, so Run must refuse it rather than pass it.
func TestRunRejectsVacuousCase(t *testing.T) {
	c := Case{Name: "no-pairs", Chargers: 2, Tasks: 6, Duration: [2]int{2, 6}, Releases: 3, Colors: 1, Seed: 101}
	err := Run(c, Variants())
	if err == nil || !strings.Contains(err.Error(), "vacuous") {
		t.Fatalf("Run accepted a case with nothing to schedule: %v", err)
	}
}

func TestVariantsCoverTheKernelAxes(t *testing.T) {
	var generic, stats bool
	for _, v := range Variants() {
		generic = generic || v.Generic
		stats = stats || v.Stats
	}
	if !generic || !stats {
		t.Errorf("monolithic variants miss an axis: generic kernel %v, counted run %v", generic, stats)
	}
	// Workers only sizes the component pool, so the sharded and mutation
	// sweeps must run it both sequentially and pooled, on both kernels.
	for name, set := range map[string][]Variant{"shard": ShardVariants(), "mutation": MutationVariants()} {
		var seq, pooled, genericPooled bool
		for _, v := range set {
			seq = seq || (v.Workers == 1 && !v.Generic)
			pooled = pooled || (v.Workers > 1 && !v.Generic)
			genericPooled = genericPooled || (v.Workers > 1 && v.Generic)
		}
		if !seq || !pooled || !genericPooled {
			t.Errorf("%s variants miss a pool axis: sequential %v, pooled %v, generic pooled %v",
				name, seq, pooled, genericPooled)
		}
	}
}

func TestKernelSweepAgreement(t *testing.T) {
	for _, c := range Sweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			p, err := c.Problem()
			if err != nil {
				t.Fatal(err)
			}
			if err := KernelSweep(p, c.Seed, 400); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestKernelSweepRequiresTheDefaultUtility(t *testing.T) {
	c := Sweep()[0]
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	p.SetFlatKernel(false)
	defer p.SetFlatKernel(true)
	if p.FlatKernel() {
		t.Fatal("SetFlatKernel(false) did not disable the flat kernel")
	}
	if err := KernelSweep(p, 1, 1); err == nil {
		t.Error("sweep should refuse to run without the flat kernel")
	}
}
