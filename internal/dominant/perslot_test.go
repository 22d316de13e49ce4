package dominant

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"haste/internal/model"
)

// The paper sets Γ_{i,k} = Γ_i (dominant sets extracted once over all
// tasks) and handles per-slot activity in the objective. This loses
// nothing: for every slot k, the maximal *active* coverable sets derived
// from the global dominant sets coincide with the dominant sets extracted
// over only the slot's active tasks. This test certifies that equivalence
// on random instances — the justification for the Γ_{i,k} = Γ_i design
// choice (see DESIGN.md §3 and BenchmarkAblationDominantPerSlot).
func TestGlobalVsPerSlotDominantEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 100; trial++ {
		in := randomWindowedRing(rng)
		global := ExtractSubset(in, 0, allIDs(in))
		maxK := 0
		for _, tk := range in.Tasks {
			if tk.End > maxK {
				maxK = tk.End
			}
		}
		for k := 0; k < maxK; k++ {
			var active []int
			for _, tk := range in.Tasks {
				if tk.ActiveAt(k) {
					active = append(active, tk.ID)
				}
			}
			perSlot := maximalFamilies(coverFamilies(ExtractSubset(in, 0, active), nil))
			fromGlobal := maximalFamilies(coverFamilies(global, activeFilter(in, k)))
			if !reflect.DeepEqual(perSlot, fromGlobal) {
				t.Fatalf("trial %d slot %d: per-slot %v != global∩active %v",
					trial, k, perSlot, fromGlobal)
			}
		}
	}
}

// coverFamilies extracts cover sets, optionally filtered, dropping empties.
func coverFamilies(ps []Policy, keep func(int) bool) [][]int {
	var out [][]int
	for _, p := range ps {
		if p.Idle {
			continue
		}
		var s []int
		for _, id := range p.Covers {
			if keep == nil || keep(id) {
				s = append(s, id)
			}
		}
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func activeFilter(in *model.Instance, k int) func(int) bool {
	return func(id int) bool { return in.Tasks[id].ActiveAt(k) }
}

// maximalFamilies dedups and keeps only inclusion-maximal sets, sorted.
func maximalFamilies(fams [][]int) [][]int {
	seen := map[string][]int{}
	for _, f := range fams {
		s := append([]int(nil), f...)
		sort.Ints(s)
		seen[fmt.Sprint(s)] = s
	}
	var all [][]int
	for _, s := range seen {
		all = append(all, s)
	}
	var out [][]int
	for i, a := range all {
		maximal := true
		for j, b := range all {
			if i != j && strictSubset(a, b) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// randomWindowedRing is randomRing with task windows.
func randomWindowedRing(rng *rand.Rand) *model.Instance {
	n := 1 + rng.Intn(8)
	az := make([]float64, n)
	for i := range az {
		az[i] = rng.Float64() * 360
	}
	in := ringInstance(20+rng.Float64()*160, az...)
	for j := range in.Tasks {
		rel := rng.Intn(4)
		in.Tasks[j].Release = rel
		in.Tasks[j].End = rel + 1 + rng.Intn(5)
	}
	return in
}
