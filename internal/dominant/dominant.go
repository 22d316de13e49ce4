// Package dominant implements Algorithm 1 of the paper: extraction of the
// dominant task sets of a directional charger.
//
// A set of tasks covered by charger s_i under some orientation is
// *dominant* if no other orientation covers a strict superset
// (Definition 4.1). Because the charger-side coverage condition for task j
// depends only on the azimuth a_j of the device from the charger, the set
// of orientations covering j is the circular arc of width A_s centered at
// a_j. Dominant task sets are therefore the maximal sets of tasks whose
// covering arcs share a common orientation, and the paper's rotational
// sweep reduces to an endpoint sweep over those arcs: every maximal set is
// attained at some arc start angle (rotating past a start angle is the only
// way a new task can enter the covered set).
package dominant

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"haste/internal/geom"
	"haste/internal/model"
)

// arcTask pairs a chargeable task with the circular arc of charger
// orientations that cover it.
type arcTask struct {
	id  int
	arc geom.Arc
}

// Policy is one candidate scheduling policy Θ_i^p for a charger: an
// orientation together with the dominant task set it covers. Covers holds
// task IDs in ascending order. An empty Covers with Idle set represents the
// "do nothing" policy used for chargers that cannot reach any task.
type Policy struct {
	Orientation float64 // a representative orientation attaining the set
	Covers      []int   // task IDs covered, ascending
	Idle        bool    // true for the trivial no-coverage policy
}

// String renders the policy compactly for logs and test failures.
func (p Policy) String() string {
	if p.Idle {
		return "idle"
	}
	return fmt.Sprintf("θ=%.1f°→%v", geom.ToDeg(p.Orientation), p.Covers)
}

// ExtractAll extracts every charger's dominant task sets over all tasks
// of the instance, as Algorithm 1 does: Γ_i for i ∈ [n]. The all-tasks
// candidate slice is built once and shared across chargers
// (ExtractSubset only reads it), instead of regrown per charger.
func ExtractAll(in *model.Instance) [][]Policy {
	ids := make([]int, len(in.Tasks))
	for j := range ids {
		ids[j] = j
	}
	out := make([][]Policy, len(in.Chargers))
	for i := range in.Chargers {
		out[i] = ExtractSubset(in, i, ids)
	}
	return out
}

// windowMargin widens the candidate window on both sides. It dwarfs both
// Arc.Contains's 1e-12 tolerance and the few ulps of 2π its normalisation
// can round by, so the window holds every arc the exact predicate accepts.
const windowMargin = 1e-9

// extractor is ExtractSubset's working memory, pooled so that a compile's
// charger loop reuses one set of buffers instead of regrowing them.
//
// The non-full arcs are addressed by position q: arcs[order[q]] is the
// q-th one, by ascending start angle when the windowed scan is on and in
// arc order otherwise. A candidate's covered set is the ascending list of
// positions whose arcs contain it, plus every full arc; with dense task
// IDs that list is in bijection with the sorted Covers the set ends up
// with, so sets are deduplicated and filtered for maximality on it.
type extractor struct {
	arcs    []arcTask
	order   []int     // position → index into arcs
	los     []float64 // los[q] = arcs[order[q]].arc.Lo
	hits    []int     // positions covering the current candidate, ascending
	sets    []candSet // distinct covered sets, in discovery order
	qs      []int     // the sets' position lists, concatenated
	table   []int     // open-addressing index over sets: set index+1, 0 empty
	fullIDs []int     // IDs of the full-circle arcs, in arc order
	member  []int     // arc indices of one set, for centerOrientation
	e0, e1  int       // the candidate window, as ext positions (windowHits)
}

// candSet is one distinct covered set.
type candSet struct {
	hash    uint64
	off, n  int // qs[off : off+n]
	first   int // smallest arc index whose start angle attains the set
	maximal bool
}

var extractors = sync.Pool{New: func() any { return new(extractor) }}

// ExtractSubset extracts dominant task sets considering only the tasks
// whose IDs appear in taskIDs. The online algorithm uses this to build
// policies over the tasks a charger has observed so far, and the per-slot
// ablation uses it with the tasks active in one slot. Task IDs must be
// dense (model.Instance.Validate), so that an ID names one arc. A charger
// with no chargeable task gets a single Idle policy so that the partition
// Θ_{i,k} is never empty (the matroid constraint selects exactly one
// policy per charger per slot).
//
// The candidate orientations are the arc start angles, and each is tested
// only against the arcs that start within its window [θ−A_s−ε, θ+ε]
// (two forward-only pointers over the sorted start angles), so the scan
// costs O(m log m + Σ|window|) rather than m² membership tests. The final
// membership decision is always the exact Arc.Contains(θ). Sets are
// deduplicated by a hash of their position list confirmed by comparison;
// only inclusion-maximal sets get their Covers built and an orientation
// chosen. That orientation is centerOrientation applied to the first
// candidate, in arc order, that attains the set, so the output is the one
// the plain all-pairs sweep over candidates in arc order produces.
func ExtractSubset(in *model.Instance, chargerID int, taskIDs []int) []Policy {
	x := extractors.Get().(*extractor)
	defer extractors.Put(x)
	return x.extract(in, chargerID, taskIDs)
}

func (x *extractor) extract(in *model.Instance, chargerID int, taskIDs []int) []Policy {
	c := in.Chargers[chargerID]
	p := in.Params

	// T_i: chargeable tasks among the candidates (Algorithm 1, line 1).
	x.arcs, x.order, x.fullIDs = x.arcs[:0], x.order[:0], x.fullIDs[:0]
	for _, id := range taskIDs {
		t := in.Tasks[id]
		if !p.Chargeable(c, t) {
			continue
		}
		var a geom.Arc
		if v := t.Pos.Sub(c.Pos); v.X == 0 && v.Y == 0 { // c.Pos.Dist(t.Pos) == 0, without the Hypot
			a = geom.NewArc(0, geom.TwoPi) // coincident: covered by any orientation
		} else {
			a = geom.ArcAround(geom.Azimuth(c.Pos, t.Pos), p.ChargeAngle)
		}
		if a.Full() {
			x.fullIDs = append(x.fullIDs, t.ID)
		} else {
			x.order = append(x.order, len(x.arcs))
		}
		x.arcs = append(x.arcs, arcTask{t.ID, a})
	}
	if len(x.arcs) == 0 {
		return []Policy{{Idle: true}}
	}
	n := len(x.order)
	if n == 0 {
		// Every arc is the full circle: one set, attained at θ = 0.
		covers := slices.Clone(x.fullIDs)
		slices.Sort(covers)
		return []Policy{{Orientation: 0, Covers: covers}}
	}

	// Candidate orientations: every arc start angle. The covered set is
	// piecewise constant in θ and can only grow when θ crosses a start
	// angle, so each inclusion-maximal set is attained at one of them.
	// Full-circle arcs contribute no events and lie in every set. The
	// non-full arcs all have the width ArcAround gave them; the window
	// scan needs it below π and every start angle in [0, 2π) (a NaN
	// coordinate can break that), and otherwise every candidate scans
	// every arc.
	width := x.arcs[x.order[0]].arc.Width
	windowed := width < math.Pi
	for _, k := range x.order {
		if lo := x.arcs[k].arc.Lo; !(lo >= 0 && lo < geom.TwoPi) {
			windowed = false
		}
	}
	if windowed {
		slices.SortFunc(x.order, func(a, b int) int {
			if la, lb := x.arcs[a].arc.Lo, x.arcs[b].arc.Lo; la != lb {
				if la < lb {
					return -1
				}
				return 1
			}
			return a - b
		})
	}
	x.los = x.los[:0]
	for _, k := range x.order {
		x.los = append(x.los, x.arcs[k].arc.Lo)
	}

	size := 1
	for size < 2*n {
		size <<= 1
	}
	x.table = slices.Grow(x.table[:0], size)[:size]
	clear(x.table)
	x.sets, x.qs = x.sets[:0], x.qs[:0]
	x.e0, x.e1 = 0, 0
	cur := -1 // set of the previous candidate
	for q, theta := range x.los {
		k := x.order[q]
		if q > 0 && math.Float64bits(theta) == math.Float64bits(x.los[q-1]) {
			// The same angle attains the same set; only its first
			// attaining arc can move.
			x.sets[cur].first = min(x.sets[cur].first, k)
			continue
		}
		if windowed {
			x.windowHits(theta, width)
		} else {
			x.hits = x.hits[:0]
			x.appendHits(theta, 0, n)
		}
		cur = x.intern(k)
	}

	// Keep only maximal sets (Definition 4.1).
	nMax, total := 0, 0
	for i := range x.sets {
		a := x.setQs(i)
		maximal := true
		for j := range x.sets {
			if i != j && x.sets[j].n > len(a) && strictSubset(a, x.setQs(j)) {
				maximal = false
				break
			}
		}
		x.sets[i].maximal = maximal
		if maximal {
			nMax++
			total += len(a) + len(x.fullIDs)
		}
	}

	out := make([]Policy, 0, nMax)
	backing := make([]int, 0, total)
	for i := range x.sets {
		if !x.sets[i].maximal {
			continue
		}
		start := len(backing)
		x.member = x.member[:0]
		for _, q := range x.setQs(i) {
			k := x.order[q]
			x.member = append(x.member, k)
			backing = append(backing, x.arcs[k].id)
		}
		backing = append(backing, x.fullIDs...)
		var covers []int
		if len(backing) > start {
			covers = backing[start:len(backing):len(backing)]
			slices.Sort(covers)
		}
		slices.Sort(x.member)
		theta := x.arcs[x.sets[i].first].arc.Lo
		out = append(out, Policy{Orientation: centerOrientation(theta, x.member, x.arcs), Covers: covers})
	}
	slices.SortFunc(out, comparePolicies)
	return out
}

// windowHits fills x.hits with the ascending positions of the arcs that
// contain theta. x.los is sorted, and read as the virtual array
// ext[e] = los[e mod n] + 2π·(e div n − 1), e ∈ [0, 3n): the arcs that may
// contain theta are those whose copy in ext lies in the window
// [theta−width−ε, theta+ε], which is ext[e0:e1]. Candidates arrive in
// ascending order, so both ends only move forward. The window is narrower
// than 2π, so each arc appears in it at most once, and its positions
// ascend except for one wrap at a multiple of n.
func (x *extractor) windowHits(theta, width float64) {
	n := len(x.los)
	for lo := theta - width - windowMargin; x.ext(x.e0) < lo; x.e0++ {
	}
	for hi := theta + windowMargin; x.e1 < 3*n && x.ext(x.e1) <= hi; x.e1++ {
	}
	x.hits = x.hits[:0]
	if wrap := (x.e0/n + 1) * n; wrap < x.e1 {
		x.appendHits(theta, wrap, x.e1)
		x.appendHits(theta, x.e0, wrap)
	} else {
		x.appendHits(theta, x.e0, x.e1)
	}
}

// ext returns ext[e] (see windowHits).
func (x *extractor) ext(e int) float64 {
	n := len(x.los)
	switch {
	case e < n:
		return x.los[e] - geom.TwoPi
	case e < 2*n:
		return x.los[e-n]
	}
	return x.los[e-2*n] + geom.TwoPi
}

// appendHits tests the arcs at ext positions [e0, e1), which lie in one
// block of n, against theta.
func (x *extractor) appendHits(theta float64, e0, e1 int) {
	for q := e0 % len(x.los); e0 < e1; q, e0 = q+1, e0+1 {
		if x.arcs[x.order[q]].arc.Contains(theta) {
			x.hits = append(x.hits, q)
		}
	}
}

// intern returns the index of the set whose position list equals x.hits,
// adding it if it is new, and records arc k as attaining it.
func (x *extractor) intern(k int) int {
	h := uint64(14695981039346656037) // FNV-1a over the positions
	for _, q := range x.hits {
		h = (h ^ uint64(q)) * 1099511628211
	}
	mask := uint64(len(x.table) - 1)
	for slot := (h ^ h>>32) & mask; ; slot = (slot + 1) & mask {
		s := x.table[slot] - 1
		if s < 0 {
			x.table[slot] = len(x.sets) + 1
			x.sets = append(x.sets, candSet{hash: h, off: len(x.qs), n: len(x.hits), first: k})
			x.qs = append(x.qs, x.hits...)
			return len(x.sets) - 1
		}
		if x.sets[s].hash == h && slices.Equal(x.setQs(s), x.hits) {
			x.sets[s].first = min(x.sets[s].first, k)
			return s
		}
	}
}

func (x *extractor) setQs(i int) []int {
	s := x.sets[i]
	return x.qs[s.off : s.off+s.n]
}

// comparePolicies orders policies by orientation. Exact ties, which are
// rare, fall back to the fmt.Sprint text of the cover lists, built only
// for the tie.
func comparePolicies(a, b Policy) int {
	switch {
	case a.Orientation < b.Orientation:
		return -1
	case a.Orientation > b.Orientation:
		return 1
	}
	ka, kb := fmt.Sprint(a.Covers), fmt.Sprint(b.Covers)
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	}
	return 0
}

// centerOrientation recenters a feasible orientation inside the
// intersection of the covering arcs of the covered set, to keep the
// representative orientation away from razor-edge boundaries. members
// holds the ascending indices into arcs of the set's non-full arcs, and
// theta must lie on every one of them.
func centerOrientation(theta float64, members []int, arcs []arcTask) float64 {
	fwd, bwd := geom.TwoPi, geom.TwoPi
	for _, k := range members {
		a := arcs[k].arc
		f := geom.NormalizeAngle(a.Lo + a.Width - theta) // slack counterclockwise
		b := geom.NormalizeAngle(theta - a.Lo)           // slack clockwise
		if f < fwd {
			fwd = f
		}
		if b < bwd {
			bwd = b
		}
	}
	if fwd >= geom.TwoPi && bwd >= geom.TwoPi {
		return theta
	}
	return geom.NormalizeAngle(theta + (fwd-bwd)/2)
}

// strictSubset reports whether sorted slice a ⊂ b strictly.
func strictSubset(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	if len(a) > 0 && (a[0] < b[0] || a[len(a)-1] > b[len(b)-1]) {
		return false
	}
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}
