package core

import "slices"

// componentRun is what a finished component run leaves on its sub-Problem
// (Problem.lastRun) so the next solve can skip re-running it: the search
// options and kernel choice it ran under, the plan slice it consumed and
// its local result. Reuse needs no dirty tracking of its own. A
// sub-Problem is never mutated after it is compiled; subProblems carries
// only untouched sub-Problems across delta operations (the prevSubs
// adoption in incremental.go); and monolithicGreedy is a deterministic
// function of (sub-Problem, search options, plan slice). So when a run's
// options and plan slice equal the record's, the stored result IS what a
// re-run would compute, bit for bit — which internal/difftest's
// mutation-walk sweep enforces against from-scratch solves.
//
// Only problems made by CloneCompiled, and the sub-Problems compiled
// under them, keep records: sessions and the mutation walk re-solve one
// long-lived clone, while one-shot and fleet solves would only pay the
// memory. A record is immutable once stored; concurrent solves on one
// clone race only on which record the atomic pointer ends up holding.
// kernelStats stays in the key although counting changes no schedule: an
// uncounted record carries zero counts.
type componentRun struct {
	colors, samples         int
	preferStay, kernelStats bool
	flat                    bool // the sub-Problem's kernel choice (SetFlatKernel)
	plan                    *colorPlan
	res                     *Result
}

// matches reports whether a run with the given normalized options, kernel
// choice and plan slice would recompute exactly this record's result.
func (cr *componentRun) matches(opt Options, flat bool, plan *colorPlan) bool {
	if cr == nil || cr.colors != opt.Colors || cr.samples != opt.Samples ||
		cr.preferStay != opt.PreferStay || cr.kernelStats != opt.KernelStats || cr.flat != flat {
		return false
	}
	return slices.Equal(cr.plan.colorOf, plan.colorOf) && slices.Equal(cr.plan.final, plan.final)
}
