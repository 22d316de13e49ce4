package netsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomTopology draws a connected symmetric topology: a random spanning
// chain plus extra random edges.
func randomTopology(rng *rand.Rand, n int) [][]int {
	nb := make([]map[int]bool, n)
	for i := range nb {
		nb[i] = map[int]bool{}
	}
	perm := rng.Perm(n)
	for idx := 1; idx < n; idx++ {
		a, b := perm[idx-1], perm[idx]
		nb[a][b] = true
		nb[b][a] = true
	}
	for e := 0; e < n; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nb[a][b] = true
			nb[b][a] = true
		}
	}
	out := make([][]int, n)
	for i, m := range nb {
		for j := 0; j < n; j++ { // fixed order, no map iteration
			if m[j] {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// TestDriverEquivalenceSeededTopologies pins the StepFunc seam's
// determinism contract on richer inputs than the line graph: on seeded
// random topologies a concurrent stepping fan (concurrentStep) and the
// in-memory engine's sequential one must deliver identical node outcomes
// and identical message/round accounting. CI runs this under the race
// detector, where the round loop's barrier discipline is actually checked.
func TestDriverEquivalenceSeededTopologies(t *testing.T) {
	for _, seed := range []int64{201, 202, 203} {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		topo := randomTopology(rng, n)
		if err := ValidateTopology(topo); err != nil {
			t.Fatalf("seed %d: generated invalid topology: %v", seed, err)
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = rng.Intn(1000)
		}
		run := func(parallel bool) ([]int, Stats) {
			nodes := make([]Node, n)
			for i := 0; i < n; i++ {
				nodes[i] = &maxNode{val: vals[i]}
			}
			stats, err := runSession(topo, Options{}, nodes, parallel)
			if err != nil {
				t.Fatalf("seed %d parallel=%v: %v", seed, parallel, err)
			}
			out := make([]int, n)
			for i, nd := range nodes {
				out[i] = nd.(*maxNode).best
			}
			return out, stats
		}
		seqVals, seqStats := run(false)
		parVals, parStats := run(true)
		if !reflect.DeepEqual(seqVals, parVals) {
			t.Errorf("seed %d: node outcomes diverge: %v vs %v", seed, seqVals, parVals)
		}
		if seqStats != parStats {
			t.Errorf("seed %d: stats diverge: %+v vs %+v", seed, seqStats, parStats)
		}
	}
}

// TestDriverEquivalenceUnderFailureInjection pins the determinism contract
// for every failure mode: all random draws happen outside the stepping
// fan, so the sequential and a concurrent fan must consume the RNG
// identically and produce bit-identical outcomes and counters.
func TestDriverEquivalenceUnderFailureInjection(t *testing.T) {
	modes := map[string]Options{
		"drop":  {DropRate: 0.3},
		"dup":   {DupRate: 0.3},
		"delay": {DelayRate: 0.4, MaxDelay: 3},
		"crash": {CrashRate: 0.1, CrashDownRounds: 2},
		"asym": {LinkDropRate: func(from, to int) float64 {
			if from < to {
				return 0.5
			}
			return 0.05
		}},
		"mixed": {DropRate: 0.2, DupRate: 0.1, DelayRate: 0.2, CrashRate: 0.05},
	}
	for name, opt := range modes {
		for _, seed := range []int64{211, 212} {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(6)
			topo := randomTopology(rng, n)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = rng.Intn(1000)
			}
			run := func(parallel bool) ([]int, Stats) {
				nodes := make([]Node, n)
				for i := 0; i < n; i++ {
					nodes[i] = &maxNode{val: vals[i]}
				}
				o := opt
				o.MaxRounds = 500
				o.Rng = rand.New(rand.NewSource(seed * 31))
				stats, err := runSession(topo, o, nodes, parallel)
				if err != nil && err != ErrNoQuiescence {
					t.Fatalf("%s seed %d parallel=%v: %v", name, seed, parallel, err)
				}
				out := make([]int, n)
				for i, nd := range nodes {
					out[i] = nd.(*maxNode).best
				}
				return out, stats
			}
			seqVals, seqStats := run(false)
			parVals, parStats := run(true)
			if !reflect.DeepEqual(seqVals, parVals) {
				t.Errorf("%s seed %d: node outcomes diverge: %v vs %v", name, seed, seqVals, parVals)
			}
			if seqStats != parStats {
				t.Errorf("%s seed %d: stats diverge: %+v vs %+v", name, seed, seqStats, parStats)
			}
		}
	}
}
