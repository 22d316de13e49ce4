package online

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/opt"
	"haste/internal/sim"
	"haste/internal/workload"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func mustProblem(t *testing.T, in *model.Instance) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// mustRun runs the online scenario on the default in-memory substrate,
// where Run cannot fail — any error is a test bug.
func mustRun(t testing.TB, p *core.Problem, opt Options) Result {
	t.Helper()
	res, err := Run(p, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func singleTaskInstance() *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{{
			ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi,
			Release: 2, End: 8, Energy: 1e6, Weight: 1,
		}},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: 1.0 / 12, Tau: 1,
		},
	}
}

// One charger, one task released at slot 2 with τ = 1: the charger can
// orient no earlier than slot 3 and pays one switching delay. Five covered
// slots: 240·(1−1/12) + 4·240 = 1180 J.
func TestRunSingleTaskTiming(t *testing.T) {
	p := mustProblem(t, singleTaskInstance())
	res := mustRun(t, p, Options{Seed: 1})
	if res.Outcome.Switches != 1 {
		t.Errorf("switches = %d, want 1", res.Outcome.Switches)
	}
	if !almostEq(res.Outcome.Energy[0], 1180) {
		t.Errorf("energy = %v, want 1180", res.Outcome.Energy[0])
	}
	// Slots before release+τ must carry no command.
	for k := 0; k < 3; k++ {
		if !math.IsNaN(res.Orientations[0][k]) {
			t.Errorf("slot %d has command %v, want none", k, res.Orientations[0][k])
		}
	}
	if math.IsNaN(res.Orientations[0][3]) {
		t.Error("slot 3 should carry the first command")
	}
	// An isolated charger negotiates without sending any messages.
	if res.Stats.TotalMessages() != 0 {
		t.Errorf("messages = %d, want 0 for isolated charger", res.Stats.TotalMessages())
	}
}

func onlineWorkload(seed int64) *model.Instance {
	cfg := workload.SmallScale()
	cfg.NumChargers = 6
	cfg.NumTasks = 12
	cfg.FieldSide = 15
	cfg.ReleaseMax = 4
	cfg.DurationMin, cfg.DurationMax = 2, 6
	cfg.Params.ReceiveAngle = geom.Deg(120)
	return cfg.Generate(rand.New(rand.NewSource(seed)))
}

func TestRunDeterministicAndParallelAgrees(t *testing.T) {
	in := onlineWorkload(111)
	p := mustProblem(t, in)
	a := mustRun(t, p, Options{Seed: 7})
	b := mustRun(t, p, Options{Seed: 7})
	c := mustRun(t, p, Options{Seed: 7, Driver: concurrentFactory})
	if !almostEq(a.Outcome.Utility, b.Outcome.Utility) {
		t.Fatalf("same seed diverged: %v vs %v", a.Outcome.Utility, b.Outcome.Utility)
	}
	if !reflect.DeepEqual(a.Stats, c.Stats) {
		t.Fatalf("parallel stats differ: %+v vs %+v", a.Stats, c.Stats)
	}
	for i := range a.Orientations {
		for k := range a.Orientations[i] {
			av, cv := a.Orientations[i][k], c.Orientations[i][k]
			if (math.IsNaN(av) != math.IsNaN(cv)) || (!math.IsNaN(av) && av != cv) {
				t.Fatalf("parallel plan differs at (%d,%d): %v vs %v", i, k, av, cv)
			}
		}
	}
}

func TestRunProducesMessagesWhenNeighborsExist(t *testing.T) {
	in := onlineWorkload(112)
	p := mustProblem(t, in)
	// Verify the workload actually has neighboring chargers.
	hasNeighbors := false
	for _, ns := range denseNeighbors(in) {
		if len(ns) > 0 {
			hasNeighbors = true
		}
	}
	if !hasNeighbors {
		t.Skip("workload has no neighboring chargers")
	}
	res := mustRun(t, p, Options{Seed: 3})
	if res.Stats.TotalMessages() == 0 {
		t.Error("no control messages despite neighboring chargers")
	}
	if res.Stats.TotalRounds() == 0 {
		t.Error("no negotiation rounds recorded")
	}
	if res.Outcome.Utility <= 0 || res.Outcome.Utility > 1+1e-9 {
		t.Errorf("utility out of range: %v", res.Outcome.Utility)
	}
}

// Theorem 6.1: the online algorithm is ½(1−ρ)(1−1/e)-competitive against
// the offline optimum. Verify against the exact HASTE-R optimum (an upper
// bound on the HASTE optimum) on small instances.
func TestRunMeetsCompetitiveBound(t *testing.T) {
	bound := 0.5 * (1 - 1.0/12) * (1 - 1/math.E)
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.SmallScale()
		cfg.NumChargers, cfg.NumTasks = 3, 6
		cfg.FieldSide = 8
		cfg.ReleaseMax = 2
		cfg.DurationMin, cfg.DurationMax = 2, 4
		in := cfg.Generate(rand.New(rand.NewSource(200 + seed)))
		p := mustProblem(t, in)
		res := mustRun(t, p, Options{Seed: seed})
		sol, err := opt.Solve(p, opt.Options{MaxNodes: 20_000_000})
		if err != nil {
			t.Skipf("seed %d: OPT too large: %v", seed, err)
		}
		if sol.Utility == 0 {
			continue
		}
		if ratio := res.Outcome.Utility / sol.Utility; ratio < bound {
			t.Errorf("seed %d: competitive ratio %v below bound %v", seed, ratio, bound)
		}
	}
}

// The offline algorithm knows the future; on aggregate it must not lose to
// the online algorithm on the same workloads.
func TestOfflineBeatsOnlineOnAggregate(t *testing.T) {
	var offSum, onSum float64
	for seed := int64(0); seed < 10; seed++ {
		in := onlineWorkload(300 + seed)
		p := mustProblem(t, in)
		off := core.TabularGreedy(p, core.DefaultOptions(1))
		offSum += sim.Execute(p, off.Schedule).Utility
		onSum += mustRun(t, p, Options{Seed: seed}).Outcome.Utility
	}
	if offSum < onSum-1e-6 {
		t.Errorf("offline aggregate %v below online %v", offSum, onSum)
	}
	if onSum < 0.5*offSum {
		t.Errorf("online aggregate %v implausibly far below offline %v", onSum, offSum)
	}
}

func TestRunWithColors(t *testing.T) {
	in := onlineWorkload(113)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 4, Colors: 4})
	if res.Outcome.Utility <= 0 {
		t.Errorf("C=4 utility = %v", res.Outcome.Utility)
	}
	res1 := mustRun(t, p, Options{Seed: 4, Colors: 1})
	if res.Outcome.Utility < 0.7*res1.Outcome.Utility {
		t.Errorf("C=4 utility %v collapsed versus C=1 %v", res.Outcome.Utility, res1.Outcome.Utility)
	}
}

// Pinned multi-color golden: the experiments golden suite only exercises
// the online path with Colors = 1, so a change to colorAt's sample→color
// mapping (e.g. a revert to the biased `hash % C`) would slip past it.
// This pins the exact seeded outcome for a non-power-of-two color count;
// regenerate the constants deliberately if the mapping ever changes again.
func TestRunMultiColorGolden(t *testing.T) {
	in := onlineWorkload(113)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 4, Colors: 3})
	const wantUtility = 0.6153407608729332
	if res.Outcome.Utility != wantUtility {
		t.Errorf("C=3 utility = %v, want pinned %v", res.Outcome.Utility, wantUtility)
	}
	if res.Outcome.Switches != 11 {
		t.Errorf("C=3 switches = %d, want pinned 11", res.Outcome.Switches)
	}
	if got := res.Stats.TotalMessages(); got != 496 {
		t.Errorf("C=3 messages = %d, want pinned 496", got)
	}
	if got := res.Stats.TotalRounds(); got != 175 {
		t.Errorf("C=3 rounds = %d, want pinned 175", got)
	}
}

// Failure injection: the protocol must terminate and still produce a
// usable plan under heavy message loss.
func TestRunUnderMessageLoss(t *testing.T) {
	in := onlineWorkload(114)
	p := mustProblem(t, in)
	clean := mustRun(t, p, Options{Seed: 5})
	lossy := mustRun(t, p, Options{Seed: 5, DropRate: 0.3, DupRate: 0.1})
	if lossy.Outcome.Utility <= 0 || lossy.Outcome.Utility > 1+1e-9 {
		t.Fatalf("lossy utility out of range: %v", lossy.Outcome.Utility)
	}
	if lossy.Outcome.Utility < 0.5*clean.Outcome.Utility {
		t.Errorf("lossy run %v collapsed versus clean %v", lossy.Outcome.Utility, clean.Outcome.Utility)
	}
	if lossy.Stats.Net.Dropped == 0 {
		t.Error("expected dropped messages to be accounted")
	}
}

// Satellite regression: a lone bidder with no neighbors still bids,
// commits and burns rounds — those sessions used to vanish from
// NegotiationStats because no message was ever delivered, leaving the
// Fig. 16 totals short of Stats.Net.
func TestLoneBidderSessionsCounted(t *testing.T) {
	p := mustProblem(t, singleTaskInstance())
	res := mustRun(t, p, Options{Seed: 1})
	var sessions int
	for _, n := range res.Stats.Negotiations {
		sessions += n.Sessions
	}
	if sessions == 0 {
		t.Error("isolated charger's sessions not counted")
	}
	if res.Stats.TotalRounds() == 0 {
		t.Error("isolated charger's rounds not counted")
	}
	if res.Stats.TotalMessages() != 0 {
		t.Errorf("messages = %d, want 0 for isolated charger", res.Stats.TotalMessages())
	}
	if got, want := res.Stats.TotalRounds(), res.Stats.Net.Rounds; got != want {
		t.Errorf("per-negotiation rounds %d != network rounds %d", got, want)
	}
}

// Satellite regression: negotiate used to swallow ErrNoQuiescence — the
// session's traffic landed in Stats.Net but not in the per-negotiation
// totals, and the degradation was invisible. Force non-quiescence with a
// tiny MaxRounds and check both the surfaced counter and the exact
// reconciliation.
func TestNonQuiescentSessionsAccounted(t *testing.T) {
	in := onlineWorkload(112)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 3, MaxRounds: 3})
	if res.Stats.NonQuiescentSessions == 0 {
		t.Fatal("MaxRounds=3 tripped no session; scenario does not exercise the path")
	}
	if got, want := res.Stats.TotalMessages(), res.Stats.Net.Messages; got != want {
		t.Errorf("per-negotiation messages %d != network messages %d", got, want)
	}
	if got, want := res.Stats.TotalRounds(), res.Stats.Net.Rounds; got != want {
		t.Errorf("per-negotiation rounds %d != network rounds %d", got, want)
	}
}

// Satellite regression: colorAt used x % colors, whose modulo bias
// over-weights the first 2^64 mod C residues for non-power-of-two C. Pin
// the unbiased multiply-shift mapping and its uniformity for such C.
func TestColorAtLemireReduction(t *testing.T) {
	// The mapping must be the Lemire reduction of the splitmix64 hash
	// (reimplemented here so a revert to `hash % colors` fails the test).
	lemire := func(seed int64, s, i, k, colors int) int {
		x := uint64(seed) ^ uint64(s)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(k)*0x94d049bb133111eb
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		hi, _ := bits.Mul64(x, uint64(colors))
		return int(hi)
	}
	for _, colors := range []int{2, 3, 5, 6, 7} {
		counts := make([]int, colors)
		n := 0
		for s := 0; s < 3; s++ {
			for i := 0; i < 12; i++ {
				for k := 0; k < 40; k++ {
					c := colorAt(99, s, i, k, colors)
					if c < 0 || c >= colors {
						t.Fatalf("colorAt out of range: %d (C=%d)", c, colors)
					}
					if want := lemire(99, s, i, k, colors); c != want {
						t.Fatalf("colorAt(99,%d,%d,%d,%d) = %d, want Lemire reduction %d", s, i, k, colors, c, want)
					}
					counts[c]++
					n++
				}
			}
		}
		for c, cnt := range counts {
			frac := float64(cnt) / float64(n)
			want := 1.0 / float64(colors)
			if frac < want*0.6 || frac > want*1.4 {
				t.Errorf("C=%d color %d frequency %v far from uniform %v", colors, c, frac, want)
			}
		}
	}
}

func TestColorAt(t *testing.T) {
	// Deterministic, in range, and reasonably uniform.
	counts := make([]int, 4)
	for s := 0; s < 4; s++ {
		for i := 0; i < 10; i++ {
			for k := 0; k < 50; k++ {
				c := colorAt(42, s, i, k, 4)
				if c < 0 || c >= 4 {
					t.Fatalf("color %d out of range", c)
				}
				if c != colorAt(42, s, i, k, 4) {
					t.Fatal("colorAt not deterministic")
				}
				counts[c]++
			}
		}
	}
	total := 4 * 10 * 50
	for c, cnt := range counts {
		frac := float64(cnt) / float64(total)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("color %d frequency %v far from uniform", c, frac)
		}
	}
	if colorAt(42, 3, 1, 2, 1) != 0 {
		t.Error("single color must map to 0")
	}
}

func TestKnownNeighborsLocality(t *testing.T) {
	// Two far-apart clusters must not become neighbors.
	in := &model.Instance{
		Chargers: []model.Charger{
			{ID: 0, Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Pos: geom.Point{X: 4, Y: 0}},
			{ID: 2, Pos: geom.Point{X: 100, Y: 0}},
			{ID: 3, Pos: geom.Point{X: 104, Y: 0}},
		},
		Tasks: []model.Task{
			{ID: 0, Pos: geom.Point{X: 2, Y: 0}, Phi: 0, Release: 0, End: 4, Energy: 100, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: 102, Y: 0}, Phi: 0, Release: 0, End: 4, Energy: 100, Weight: 0.5},
		},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.TwoPi,
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
	p := mustProblem(t, in)
	nb := knownNeighbors(p, knownSet(p, []int{0, 1}))
	want := [][]int{{1}, {0}, {3}, {2}}
	if !reflect.DeepEqual(nb, want) {
		t.Fatalf("neighbors = %v, want %v", nb, want)
	}
	// With only task 0 known, the right cluster has no neighbors yet.
	nb = knownNeighbors(p, knownSet(p, []int{0}))
	if len(nb[2]) != 0 || len(nb[3]) != 0 {
		t.Fatalf("right cluster should be isolated: %v", nb)
	}
}

// chargeableTasks returns T_i for every charger: the IDs of the tasks the
// charger can cover under some orientation, ascending, by a dense O(n·m)
// scan of Params.Chargeable.
func chargeableTasks(in *model.Instance) [][]int {
	out := make([][]int, len(in.Chargers))
	for i, c := range in.Chargers {
		for _, t := range in.Tasks {
			if in.Params.Chargeable(c, t) {
				out[i] = append(out[i], t.ID)
			}
		}
	}
	return out
}

// denseNeighbors returns N(s_i) for every charger under the paper's rule,
// from the instance's geometry alone: two chargers are neighbors iff they
// share at least one chargeable task. It is knownNeighbors' oracle when
// every task is known.
func denseNeighbors(in *model.Instance) [][]int {
	cover := chargeableTasks(in)
	taskTo := make([][]int, len(in.Tasks))
	for i, ts := range cover {
		for _, j := range ts {
			taskTo[j] = append(taskTo[j], i)
		}
	}
	seen := make([]map[int]bool, len(in.Chargers))
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for _, cs := range taskTo {
		for _, a := range cs {
			for _, b := range cs {
				if a != b {
					seen[a][b] = true
				}
			}
		}
	}
	out := make([][]int, len(in.Chargers))
	for i, m := range seen {
		for b := range m {
			out[i] = append(out[i], b)
		}
		sort.Ints(out[i])
	}
	return out
}

// The dense oracle itself, on two chargers 15 m apart with one task
// between them and a third charger far away.
func TestDenseNeighbors(t *testing.T) {
	in := &model.Instance{
		Chargers: []model.Charger{
			{ID: 0, Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Pos: geom.Point{X: 15, Y: 0}},
			{ID: 2, Pos: geom.Point{X: 100, Y: 100}},
		},
		Tasks: []model.Task{
			{ID: 0, Pos: geom.Point{X: 7, Y: 0}, Phi: math.Pi, Release: 0, End: 5, Energy: 1e3, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: 8, Y: 0}, Phi: 0, Release: 2, End: 9, Energy: 2e3, Weight: 0.5},
		},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: 1.0 / 12, Tau: 1,
		},
	}
	// No shared tasks → no neighbors anywhere.
	nb := denseNeighbors(in)
	for i, ns := range nb {
		if len(ns) != 0 {
			t.Errorf("charger %d neighbors = %v, want none", i, ns)
		}
	}
	// Make task 0 receivable by both charger 0 and 1 (full receiving circle).
	in.Params.ReceiveAngle = geom.TwoPi
	nb = denseNeighbors(in)
	if len(nb[0]) != 1 || nb[0][0] != 1 || len(nb[1]) != 1 || nb[1][0] != 0 {
		t.Errorf("neighbors with A_o=2π: %v", nb)
	}
	if len(nb[2]) != 0 {
		t.Errorf("remote charger should stay isolated: %v", nb[2])
	}
}

// pairwiseNeighbors is the brute-force relation over a known subset: a
// pair of chargers is adjacent iff some known task harvests energy from
// both.
func pairwiseNeighbors(p *core.Problem, known []int) [][]int {
	n := len(p.In.Chargers)
	out := make([][]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && slices.ContainsFunc(known, func(j int) bool {
				return p.SlotEnergy(a, j) > 0 && p.SlotEnergy(b, j) > 0
			}) {
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}

// knownNeighbors builds the neighbor relation over the tasks isKnown
// marks from scratch, as one arrival batch.
func knownNeighbors(p *core.Problem, isKnown []bool) [][]int {
	var batch []int
	for j, known := range isKnown {
		if known {
			batch = append(batch, j)
		}
	}
	nr := newNeighborRelation(p)
	nr.add(batch)
	return nr.rows
}

// knownSet marks the tasks ids names.
func knownSet(p *core.Problem, ids []int) []bool {
	known := make([]bool, len(p.In.Tasks))
	for _, j := range ids {
		known[j] = true
	}
	return known
}

// sameRelation compares two neighbor relations row by row, an empty row
// matching a nil one.
func sameRelation(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// knownNeighbors must equal the dense relation when every task is known,
// and the brute-force pairwise relation on random known subsets, the
// empty and one-task subsets included. The relation a run grows batch by
// batch must equal knownNeighbors over the tasks known so far after
// every arrival batch.
func TestKnownNeighborsMatchesOracles(t *testing.T) {
	edges, grown := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		in := workload.Default().Generate(rand.New(rand.NewSource(seed)))
		p := mustProblem(t, in)
		nr := newNeighborRelation(p)
		var known []int
		slots, arrivals := arrivalBatches(in)
		size := 0 // entries of the relation so far
		for b, now := range slots {
			nr.add(arrivals[now])
			known = append(known, arrivals[now]...)
			want := knownNeighbors(p, knownSet(p, known))
			if !sameRelation(nr.rows, want) {
				t.Fatalf("seed %d, after batch %d (slot %d): grown %v, from scratch %v", seed, b, now, nr.rows, want)
			}
			was := size
			size = 0
			for _, row := range want {
				size += len(row)
			}
			if b > 0 && size > was {
				grown++
			}
		}
		all := knownNeighbors(p, knownSet(p, allIDs(p)))
		if want := denseNeighbors(in); !sameRelation(all, want) {
			t.Fatalf("seed %d, every task known: got %v, want %v", seed, all, want)
		}
		for _, row := range all {
			edges += len(row)
		}
		rng := rand.New(rand.NewSource(seed))
		subsets := [][]int{nil, {rng.Intn(len(in.Tasks))}}
		for k := 0; k < 4; k++ {
			var known []int
			for j := range in.Tasks {
				if rng.Intn(4) == 0 {
					known = append(known, j)
				}
			}
			subsets = append(subsets, known)
		}
		for _, known := range subsets {
			if got, want := knownNeighbors(p, knownSet(p, known)), pairwiseNeighbors(p, known); !sameRelation(got, want) {
				t.Fatalf("seed %d, known %v: got %v, want %v", seed, known, got, want)
			}
		}
	}
	if edges == 0 {
		t.Fatal("no instance has a neighbor pair: the comparison is vacuous")
	}
	if grown == 0 {
		t.Fatal("no later arrival batch grew the relation: the incremental path is untested")
	}
}
