package dominant

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
)

// ringInstance places one charger at the origin and tasks on a circle of
// radius 5 at the given azimuths (degrees), each facing back at the
// charger so every task is chargeable.
func ringInstance(chargeAngleDeg float64, azimuthsDeg ...float64) *model.Instance {
	in := &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Params: model.Params{
			Alpha: 100, Beta: 1, Radius: 10,
			ChargeAngle:  geom.Deg(chargeAngleDeg),
			ReceiveAngle: geom.TwoPi,
			SlotSeconds:  60, Rho: 0, Tau: 0,
		},
	}
	for j, az := range azimuthsDeg {
		a := geom.Deg(az)
		pos := geom.Point{X: 5 * math.Cos(a), Y: 5 * math.Sin(a)}
		in.Tasks = append(in.Tasks, model.Task{
			ID: j, Pos: pos, Phi: geom.NormalizeAngle(a + math.Pi),
			Release: 0, End: 10, Energy: 100, Weight: 1,
		})
	}
	return in
}

func coverSets(ps []Policy) [][]int {
	var out [][]int
	for _, p := range ps {
		if !p.Idle {
			out = append(out, p.Covers)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// A toy example in the spirit of Fig. 2: six tasks around one charger with
// a 90° charging angle; the dominant sets are known by hand.
func TestExtractToyExample(t *testing.T) {
	in := ringInstance(90, 0, 30, 80, 140, 200, 330)
	got := coverSets(ExtractSubset(in, 0, allIDs(in)))
	want := [][]int{{0, 1, 2}, {0, 1, 5}, {2, 3}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dominant sets = %v, want %v", got, want)
	}
}

func TestExtractIdleWhenNoTasks(t *testing.T) {
	in := ringInstance(90)
	ps := ExtractSubset(in, 0, allIDs(in))
	if len(ps) != 1 || !ps[0].Idle {
		t.Fatalf("expected single idle policy, got %v", ps)
	}
}

func TestExtractUnreachableTasks(t *testing.T) {
	in := ringInstance(90, 0, 90)
	// Push both tasks out of range.
	for j := range in.Tasks {
		in.Tasks[j].Pos = geom.Point{X: 100 + float64(j), Y: 0}
	}
	ps := ExtractSubset(in, 0, allIDs(in))
	if len(ps) != 1 || !ps[0].Idle {
		t.Fatalf("expected idle policy for unreachable tasks, got %v", ps)
	}
}

func TestExtractFullCircleCharger(t *testing.T) {
	in := ringInstance(360, 0, 45, 170, 260, 359)
	ps := ExtractSubset(in, 0, allIDs(in))
	if len(ps) != 1 {
		t.Fatalf("A_s = 2π should give one dominant set, got %v", ps)
	}
	if !reflect.DeepEqual(ps[0].Covers, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("full-circle covers = %v", ps[0].Covers)
	}
}

func TestExtractSingleTask(t *testing.T) {
	in := ringInstance(60, 123)
	ps := ExtractSubset(in, 0, allIDs(in))
	if len(ps) != 1 || len(ps[0].Covers) != 1 || ps[0].Covers[0] != 0 {
		t.Fatalf("single task: %v", ps)
	}
	// Representative orientation must actually cover the task.
	if !in.Params.Covers(in.Chargers[0], ps[0].Orientation, in.Tasks[0]) {
		t.Fatal("representative orientation does not cover the task")
	}
}

func TestExtractCoincidentTask(t *testing.T) {
	in := ringInstance(60, 0)
	in.Tasks[0].Pos = in.Chargers[0].Pos // device sits on the charger
	ps := ExtractSubset(in, 0, allIDs(in))
	if len(ps) != 1 || !reflect.DeepEqual(ps[0].Covers, []int{0}) {
		t.Fatalf("coincident task: %v", ps)
	}
}

// Each policy's representative orientation must cover exactly its set.
func TestExtractOrientationsAttainSets(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		in := randomRing(rng)
		for _, p := range ExtractSubset(in, 0, allIDs(in)) {
			if p.Idle {
				continue
			}
			covered := coveredAt(in, p.Orientation)
			if !reflect.DeepEqual(covered, p.Covers) {
				t.Fatalf("trial %d: orientation %v covers %v, policy says %v\n(tasks %v)",
					trial, p.Orientation, covered, p.Covers, in.Tasks)
			}
		}
	}
}

// No returned set may be a strict subset of another, and every chargeable
// task must appear in at least one dominant set.
func TestExtractMaximalityAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		in := randomRing(rng)
		ps := ExtractSubset(in, 0, allIDs(in))
		sets := coverSets(ps)
		for i := range sets {
			for j := range sets {
				if i != j && strictSubset(sets[i], sets[j]) {
					t.Fatalf("trial %d: %v ⊂ %v both returned", trial, sets[i], sets[j])
				}
			}
		}
		present := map[int]bool{}
		for _, s := range sets {
			for _, id := range s {
				present[id] = true
			}
		}
		for _, tk := range in.Tasks {
			if in.Params.Chargeable(in.Chargers[0], tk) && !present[tk.ID] {
				t.Fatalf("trial %d: chargeable task %d missing from all dominant sets", trial, tk.ID)
			}
		}
	}
}

// Extract must agree with an exhaustive fine-grained rotation scan.
func TestExtractMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		in := randomRing(rng)
		got := coverSets(ExtractSubset(in, 0, allIDs(in)))
		want := bruteForceDominant(in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Extract = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestExtractSubsetRestricts(t *testing.T) {
	in := ringInstance(90, 0, 30, 80, 140, 200, 330)
	ps := ExtractSubset(in, 0, []int{2, 3})
	got := coverSets(ps)
	want := [][]int{{2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subset extraction = %v, want %v", got, want)
	}
}

func TestStrictSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1, 2}, false},
		{[]int{1, 3}, []int{1, 2}, false},
		{nil, []int{1}, true},
		{nil, nil, false},
		{[]int{1, 2, 3}, []int{1, 2}, false},
	}
	for _, c := range cases {
		if got := strictSubset(c.a, c.b); got != c.want {
			t.Errorf("strictSubset(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// --- helpers ---

func randomRing(rng *rand.Rand) *model.Instance {
	n := 1 + rng.Intn(10)
	az := make([]float64, n)
	for i := range az {
		az[i] = rng.Float64() * 360
	}
	angle := 20 + rng.Float64()*160
	return ringInstance(angle, az...)
}

func coveredAt(in *model.Instance, theta float64) []int {
	var out []int
	for _, tk := range in.Tasks {
		if in.Params.Covers(in.Chargers[0], theta, tk) {
			out = append(out, tk.ID)
		}
	}
	return out
}

// bruteForceDominant scans orientations densely (every arc endpoint plus a
// fine grid) and filters maximal covered sets.
func bruteForceDominant(in *model.Instance) [][]int {
	seen := map[string][]int{}
	add := func(theta float64) {
		c := coveredAt(in, theta)
		if len(c) > 0 {
			seen[fmt.Sprint(c)] = c
		}
	}
	for d := 0.0; d < 360; d += 0.05 {
		add(geom.Deg(d))
	}
	for _, tk := range in.Tasks {
		a := geom.Azimuth(in.Chargers[0].Pos, tk.Pos)
		for _, off := range []float64{-in.Params.ChargeAngle / 2, in.Params.ChargeAngle / 2} {
			add(geom.NormalizeAngle(a + off))
		}
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
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}
