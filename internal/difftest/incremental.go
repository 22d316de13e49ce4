package difftest

import (
	"fmt"
	"math/rand"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
)

// This file is the mutation-walk sweep: the proof obligation of the
// incremental-scheduling layer (core/incremental.go, core/warm.go). A walk
// drives a long random sequence of AddTask/RemoveTask delta operations
// through compiled clones and, step by step, holds them to two contracts:
//
//   - Compile identity: the patched Problem is structurally identical —
//     instance, sparse rows, compiled cover lists, policy windows, K — to
//     NewProblem of the mutated instance (CompareProblems).
//   - Solve identity: a sharded solve on the long-lived mutated clone —
//     warm, since the clone's sub-Problems remember their last component
//     run — under every execution variant (component-pool sizes, generic
//     kernel), is bit-identical to a cold Workers=1 solve of a freshly
//     compiled problem — schedules cell for cell, utilities exactly equal.
//
// Each variant carries its own clone across the whole walk, so component
// reuse is exercised against an ever-mutating decomposition, not just a
// single mutation.

// MutationVariants is the execution-strategy grid of the mutation walk:
// the generic/flat kernel axis crossed with component-pool sizes. Stats
// stays off — kernel-stats collection is part of what a remembered
// component run is matched on, so mixing it into one chain would just
// disable reuse rather than test anything.
func MutationVariants() []Variant {
	return []Variant{
		{Name: "workers=1", Workers: 1},
		{Name: "workers=2", Workers: 2},
		{Name: "workers=default", Workers: 0},
		{Name: "generic", Workers: 1, Generic: true},
		{Name: "generic/workers=2", Workers: 2, Generic: true},
	}
}

// MutationSweep is the seeded case grid of the mutation walk: clustered
// shapes whose decomposition keeps shifting as tasks come and go (the
// interesting regime for component adoption and warm reuse), plus a
// connected single-component shape where every mutation dirties the one
// component and reuse must simply never fire incorrectly.
func MutationSweep() []Case {
	return []Case{
		{Name: "walk-clusters-4-c1", Chargers: 8, Tasks: 22, Clusters: 4, Duration: [2]int{4, 10}, Releases: 5, Colors: 1, Seed: 301},
		{Name: "walk-clusters-5-c3", Chargers: 10, Tasks: 26, Clusters: 5, Duration: [2]int{3, 9}, Releases: 5, Colors: 3, Samples: 6, Seed: 302},
		{Name: "walk-connected-c2", Chargers: 5, Tasks: 14, Connected: true, Duration: [2]int{3, 8}, Releases: 4, Colors: 2, Seed: 303},
	}
}

// CompareProblems returns a descriptive error for the first structural
// divergence between two compiled problems — task tables, per-charger
// sparse rows, dominant policy counts, compiled cover lists, policy
// windows, or the horizon — or nil when the compiled surfaces every
// scheduler reads are identical.
func CompareProblems(got, want *core.Problem) error {
	if got.K != want.K {
		return fmt.Errorf("K = %d, want %d", got.K, want.K)
	}
	if len(got.In.Tasks) != len(want.In.Tasks) {
		return fmt.Errorf("task count %d, want %d", len(got.In.Tasks), len(want.In.Tasks))
	}
	for j := range want.In.Tasks {
		if got.In.Tasks[j] != want.In.Tasks[j] {
			return fmt.Errorf("task %d = %+v, want %+v", j, got.In.Tasks[j], want.In.Tasks[j])
		}
	}
	for i := range want.In.Chargers {
		gr, wr := got.ChargerRow(i), want.ChargerRow(i)
		if len(gr) != len(wr) {
			return fmt.Errorf("charger %d row length %d, want %d", i, len(gr), len(wr))
		}
		for x := range wr {
			if gr[x] != wr[x] {
				return fmt.Errorf("charger %d row entry %d = %+v, want %+v", i, x, gr[x], wr[x])
			}
		}
		gg, wg := got.Gamma()[i], want.Gamma()[i]
		if len(gg) != len(wg) {
			return fmt.Errorf("charger %d has %d policies, want %d", i, len(gg), len(wg))
		}
		for pol := range wg {
			gc, wc := got.CompiledCovers(i, pol), want.CompiledCovers(i, pol)
			if len(gc) != len(wc) {
				return fmt.Errorf("charger %d policy %d compiled length %d, want %d", i, pol, len(gc), len(wc))
			}
			for x := range wc {
				if gc[x] != wc[x] {
					return fmt.Errorf("charger %d policy %d entry %d = %+v, want %+v", i, pol, x, gc[x], wc[x])
				}
			}
			glo, ghi := got.PolicyWindow(i, pol)
			wlo, whi := want.PolicyWindow(i, pol)
			if glo != wlo || ghi != whi {
				return fmt.Errorf("charger %d policy %d window [%d,%d), want [%d,%d)", i, pol, glo, ghi, wlo, whi)
			}
		}
	}
	return nil
}

// walkTask draws a valid task near a random charger, so mutations land
// inside (and keep reshaping) the coverage components.
func walkTask(in *model.Instance, rng *rand.Rand) model.Task {
	c := in.Chargers[rng.Intn(len(in.Chargers))]
	r := in.Params.Radius
	rel := rng.Intn(6)
	dur := 2*in.Params.Tau + 2 + rng.Intn(7)
	return model.Task{
		Pos: geom.Point{
			X: c.Pos.X + (rng.Float64()*2-1)*1.4*r,
			Y: c.Pos.Y + (rng.Float64()*2-1)*1.4*r,
		},
		Phi:     rng.Float64() * geom.TwoPi,
		Release: rel,
		End:     rel + dur,
		Energy:  1e3 + rng.Float64()*5e3,
		Weight:  rng.Float64() * 3,
	}
}

// chain is one variant's long-lived state across a walk: its mutated
// clone, whose sub-Problems carry the warm state between solves.
type chain struct {
	v Variant
	p *core.Problem
}

// RunMutationWalk drives a steps-long random add/remove walk through the
// delta operations under every variant, holding each step to the compile-
// and solve-identity contracts. solveEvery controls how often the (much
// more expensive) solve comparison runs; the structural comparison runs
// on every step. It returns the number of component adoptions the warm
// solves made in total, so callers can reject a vacuous sweep.
func RunMutationWalk(c Case, variants []Variant, steps, solveEvery int) (reused int, err error) {
	base, err := c.Problem()
	if err != nil {
		return 0, err
	}
	mirror := &model.Instance{
		Chargers: base.In.Chargers,
		Tasks:    append([]model.Task(nil), base.In.Tasks...),
		Params:   base.In.Params,
		Utility:  base.In.Utility,
	}
	chains := make([]chain, len(variants))
	for ci, v := range variants {
		cp := base.CloneCompiled()
		cp.SetFlatKernel(!v.Generic)
		chains[ci] = chain{v: v, p: cp}
	}

	rng := rand.New(rand.NewSource(c.Seed * 31))
	for step := 0; step < steps; step++ {
		// One mutation, mirrored into every chain and the plain instance.
		add := rng.Intn(2) == 0 || len(mirror.Tasks) < 5
		var task model.Task
		var removeID int
		if add {
			task = walkTask(mirror, rng)
			task.ID = len(mirror.Tasks)
			mirror.Tasks = append(mirror.Tasks, task)
		} else {
			removeID = rng.Intn(len(mirror.Tasks))
			last := len(mirror.Tasks) - 1
			mirror.Tasks[removeID] = mirror.Tasks[last]
			mirror.Tasks[removeID].ID = removeID
			mirror.Tasks = mirror.Tasks[:last]
		}
		for ci := range chains {
			ch := &chains[ci]
			var derr error
			if add {
				derr = ch.p.AddTask(task)
			} else {
				derr = ch.p.RemoveTask(removeID)
			}
			if derr != nil {
				return reused, fmt.Errorf("case %s, variant %s, step %d: %w", c.Name, ch.v.Name, step, derr)
			}
		}

		// Compile identity: the patched problem against a fresh compile.
		fresh, ferr := core.NewProblem(&model.Instance{
			Chargers: mirror.Chargers,
			Tasks:    append([]model.Task(nil), mirror.Tasks...),
			Params:   mirror.Params,
			Utility:  mirror.Utility,
		})
		if ferr != nil {
			return reused, fmt.Errorf("case %s, step %d: fresh compile: %w", c.Name, step, ferr)
		}
		if cerr := CompareProblems(chains[0].p, fresh); cerr != nil {
			return reused, fmt.Errorf("case %s, step %d: patched problem diverges from fresh compile: %w", c.Name, step, cerr)
		}

		if (step+1)%solveEvery != 0 {
			continue
		}
		// Solve identity: cold Workers=1 reference on the fresh compile vs
		// every chain's warm solve on its long-lived clone.
		refOpt := c.Options(1)
		refOpt.Shard = core.ShardOn
		ref := core.TabularGreedy(fresh, refOpt)
		for ci := range chains {
			ch := &chains[ci]
			opt := c.OptionsFor(ch.v)
			opt.Shard = core.ShardOn
			got := core.TabularGreedy(ch.p, opt)
			if cerr := CompareResults(ref, got); cerr != nil {
				return reused, fmt.Errorf("case %s, variant %s, step %d: warm solve diverges: %w", c.Name, ch.v.Name, step, cerr)
			}
			reused += got.WarmReused
		}
	}
	return reused, nil
}
