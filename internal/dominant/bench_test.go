package dominant_test

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"haste/internal/dominant"
	"haste/internal/workload"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// BenchmarkExtractAll measures full dominant-set extraction (Algorithm 1
// over every charger) on the paper-scale workload. EXPERIMENTS.md
// ("Allocation-light dominant-set extraction") records its numbers before
// and after the windowed scan and the pooled, hash-deduplicated sweep.
func BenchmarkExtractAll(b *testing.B) {
	in := workload.Default().Generate(rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dominant.ExtractAll(in)
	}
}

// allocBudgetExtractAll bounds the heap allocations of ExtractAll on the
// paper-scale workload (seed 1, 50 chargers, 200 tasks). It sits 5% above
// the 102 measured once extraction reused pooled buffers and allocated
// only each charger's policy slice and one backing array for its cover
// lists; the fmt.Sprint-keyed extraction took 5 736.
const allocBudgetExtractAll = 107

// A stopped GC keeps the count exact: no collection empties the
// extractor pool mid-run.
func TestExtractAllAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts need a non-race build")
	}
	in := workload.Default().Generate(rand.New(rand.NewSource(1)))
	dominant.ExtractAll(in)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() { dominant.ExtractAll(in) })
	t.Logf("ExtractAll on workload.Default seed 1: %.0f allocs (budget %d)", allocs, allocBudgetExtractAll)
	if allocs > allocBudgetExtractAll {
		t.Fatalf("%.0f allocs, budget %d", allocs, allocBudgetExtractAll)
	}
}
