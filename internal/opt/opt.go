// Package opt computes the exact optimum of HASTE-R on small instances —
// the quantity the paper's small-scale experiments (Figs. 8 and 9) compare
// against and the yardstick for the (1−ρ)(1−1/e) approximation and
// ½(1−ρ)(1−1/e) competitive guarantees.
//
// The paper brute-forces "all combinations of scheduling policies"; that
// product grows as Π_{i,k} |Γ_i| and is hopeless even at five chargers
// once several time slots are involved. Solve therefore runs a
// branch-and-bound search over the partition cells (i,k) with an
// admissible optimistic bound: a task can never harvest more additional
// energy than the sum of its per-slot contributions over all still
// undecided cells, so
//
//	bound = Σ_j w_j · U(e_j + remaining_j)
//
// overestimates every completion (U is monotone). Cells are ordered by
// decreasing potential and the search is warm-started with the greedy
// solution, which makes the paper's small-scale setting solvable in
// milliseconds while remaining provably exact. SolveExhaustive enumerates
// the full product and is used by tests to certify Solve.
package opt

import (
	"errors"
	"sort"

	"haste/internal/core"
)

// Solution is the result of an exact solve.
type Solution struct {
	Utility  float64       // optimal HASTE-R utility
	Schedule core.Schedule // an optimal assignment
	Optimal  bool          // false when the node budget was exhausted
	Nodes    int64         // search nodes expanded
}

// ErrTooLarge is returned when the instance exceeds the solver's
// configured budget without proving optimality.
var ErrTooLarge = errors.New("opt: node budget exhausted before proving optimality")

// Options tunes the solver.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes (0 = 50M).
	MaxNodes int64
}

const defaultMaxNodes = 50_000_000

// cell is one partition Θ_{i,k} to decide.
type cell struct {
	i, k      int
	potential float64 // Σ over tasks of the best per-slot energy it can add
}

// Solve computes the exact HASTE-R optimum by branch and bound.
func Solve(p *core.Problem, opt Options) (Solution, error) {
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = defaultMaxNodes
	}
	n, K, m := len(p.In.Chargers), p.K, len(p.In.Tasks)
	if n == 0 || K == 0 || m == 0 {
		return Solution{Optimal: true, Schedule: core.NewSchedule(n, K)}, nil
	}

	// Order cells by decreasing potential so strong decisions come first.
	// Potentials sum only the charger's sparse row (tasks outside it
	// contribute exactly zero), so this stays O(n·K·row) not O(n·K·m).
	cells := make([]cell, 0, n*K)
	for i := 0; i < n; i++ {
		row := p.ChargerRow(i)
		for k := 0; k < K; k++ {
			var pot float64
			for _, e := range row {
				if p.In.Tasks[e.Task].ActiveAt(k) {
					pot += e.De
				}
			}
			cells = append(cells, cell{i, k, pot})
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].potential > cells[b].potential })

	// remaining[d][j]: max extra energy task j can gain from cells d… end.
	remaining := make([][]float64, len(cells)+1)
	remaining[len(cells)] = make([]float64, m)
	for d := len(cells) - 1; d >= 0; d-- {
		row := append([]float64(nil), remaining[d+1]...)
		c := cells[d]
		for _, e := range p.ChargerRow(c.i) {
			if p.In.Tasks[e.Task].ActiveAt(c.k) {
				row[e.Task] += e.De
			}
		}
		remaining[d] = row
	}

	// Warm start with the greedy solution.
	greedy := core.TabularGreedy(p, core.DefaultOptions(1))
	best := Solution{Utility: greedy.RUtility, Schedule: greedy.Schedule.Clone()}

	es := p.AcquireState()
	defer p.ReleaseState(es)
	cur := core.NewSchedule(n, K)
	tasks := p.In.Tasks

	var nodes int64
	var overBudget bool
	var dfs func(d int)
	dfs = func(d int) {
		if overBudget {
			return
		}
		nodes++
		if nodes > opt.MaxNodes {
			overBudget = true
			return
		}
		if d == len(cells) {
			if es.Total() > best.Utility+1e-15 {
				best.Utility = es.Total()
				best.Schedule = cur.Clone()
			}
			return
		}
		// Admissible bound: finish every task optimistically.
		bound := 0.0
		for j := range tasks {
			bound += p.WeightedValue(j, es.Energy(j)+remaining[d][j])
		}
		if bound <= best.Utility+1e-12 {
			return
		}
		c := cells[d]
		// Branch on policies in decreasing marginal order.
		type cand struct {
			pol  int
			gain float64
		}
		nPol := len(p.Gamma()[c.i])
		cands := make([]cand, 0, nPol)
		for pol := 0; pol < nPol; pol++ {
			cands = append(cands, cand{pol, es.Marginal(c.i, c.k, pol)})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
		for _, cd := range cands {
			snapshot := snapshotEnergies(es, p, c.i, c.k, cd.pol)
			es.Apply(c.i, c.k, cd.pol)
			cur.Policy[c.i][c.k] = cd.pol
			dfs(d + 1)
			restoreEnergies(es, snapshot)
			cur.Policy[c.i][c.k] = -1
			if overBudget {
				return
			}
		}
	}
	dfs(0)

	best.Nodes = nodes
	best.Optimal = !overBudget
	if overBudget {
		return best, ErrTooLarge
	}
	return best, nil
}

// snapshot captures the per-task energies a policy application will touch
// so the DFS can undo it without copying the whole state.
type snapshot struct {
	es    *core.EnergyState
	ids   []int
	vals  []float64
	total float64
}

func snapshotEnergies(es *core.EnergyState, p *core.Problem, i, k, pol int) snapshot {
	s := snapshot{es: es, total: es.Total()}
	for _, j := range p.Gamma()[i][pol].Covers {
		s.ids = append(s.ids, j)
		s.vals = append(s.vals, es.Energy(j))
	}
	return s
}

func restoreEnergies(es *core.EnergyState, s snapshot) {
	es.Restore(s.ids, s.vals, s.total)
}

// SolveExhaustive enumerates the complete policy product. Exponential —
// use only on tiny instances (tests certify Solve against it).
func SolveExhaustive(p *core.Problem) Solution {
	n, K := len(p.In.Chargers), p.K
	best := Solution{Optimal: true, Schedule: core.NewSchedule(n, K)}
	if n == 0 || K == 0 {
		return best
	}
	cur := core.NewSchedule(n, K)
	var rec func(i, k int)
	rec = func(i, k int) {
		if i == n {
			if u := core.Evaluate(p, cur); u > best.Utility {
				best.Utility = u
				best.Schedule = cur.Clone()
			}
			return
		}
		ni, nk := i, k+1
		if nk == K {
			ni, nk = i+1, 0
		}
		for pol := range p.Gamma()[i] {
			cur.Policy[i][k] = pol
			rec(ni, nk)
		}
	}
	rec(0, 0)
	return best
}
