package geom

import (
	"math"
	"slices"
)

// GridIndex is a uniform spatial hash over a fixed set of points, built
// once and queried many times. It exists for the strictly local charging
// model: P_r = 0 beyond the radius D, so "which tasks can charger c
// possibly charge" only ever needs the points within distance D of c.
// The index buckets points into square cells of side ≥ D and answers
// that question from the 3×3 cell neighborhood of the query point — a
// superset guarantee, never a filter: every point within the cell side
// (≥ D) of the query is returned (plus nearby misses the caller weeds out with the
// exact predicate). Candidate sets are therefore exactly as precise as
// the caller's own containment test, and the index cannot introduce
// false negatives; internal/geom's grid property tests pin this against
// the brute-force all-pairs scan, boundary-of-cell points included.
type GridIndex struct {
	minX, minY float64
	cell       float64 // cell side, ≥ the reach requested at build time
	cols, rows int
	start      []int32 // CSR offsets into items, len cols*rows+1
	items      []int32 // point indices grouped by cell, ascending per cell
}

// maxCellsFactor bounds the cell count at roughly this multiple of the
// point count: pathological bounding boxes (two points a kilometer apart
// with a 4 m reach) would otherwise allocate offsets for millions of
// empty cells. Growing the cell side keeps the 3×3 superset guarantee —
// candidates get looser, never wrong.
const maxCellsFactor = 4

// NewGridIndex buckets pts into cells of side at least reach (> 0). The
// point set is captured by index; the points themselves are not stored.
func NewGridIndex(pts []Point, reach float64) *GridIndex {
	g := &GridIndex{cell: reach}
	if len(pts) == 0 {
		return g
	}
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	width, height := maxX-minX, maxY-minY
	if !isFinite(width) || !isFinite(height) {
		// Non-finite coordinates: collapse to one cell so every query
		// sees every point — trivially a superset, and nothing here can
		// overflow. Defense in depth only: model.Instance.Validate
		// rejects NaN/±Inf positions before any index is built, so
		// validated instances never reach this branch.
		width, height = 0, 0
		g.cell = math.Inf(1)
	}
	budget := maxCellsFactor*len(pts) + 16
	for {
		cw := math.Floor(width/g.cell) + 1
		ch := math.Floor(height/g.cell) + 1
		if cw*ch <= float64(budget) {
			g.cols, g.rows = int(cw), int(ch)
			break
		}
		g.cell *= 2
	}
	// Counting sort into CSR: a pass of counts, prefix sums, then a
	// placement pass. Placing in point order keeps every cell's indices
	// ascending.
	g.start = make([]int32, g.cols*g.rows+1)
	for _, p := range pts {
		g.start[g.cellOf(p)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, len(pts))
	fill := make([]int32, g.cols*g.rows)
	for idx, p := range pts {
		c := g.cellOf(p)
		g.items[g.start[c]+fill[c]] = int32(idx)
		fill[c]++
	}
	return g
}

// cellOf maps an indexed point to its cell index. Coordinates are
// clamped in float space before the int conversion, so boundary points,
// rounding on the max edge and non-finite values all land on a valid
// cell instead of overflowing the conversion.
func (g *GridIndex) cellOf(p Point) int {
	cx := clampIdx((p.X-g.minX)/g.cell, g.cols)
	cy := clampIdx((p.Y-g.minY)/g.cell, g.rows)
	return cy*g.cols + cx
}

// clampIdx converts a float cell coordinate to an index in [0, n-1].
// NaN maps to 0.
func clampIdx(f float64, n int) int {
	if !(f > 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// Candidates appends to buf the indices of every point that could lie
// within the cell side (the reach requested at construction, or more if
// the cell budget grew the cells) of q — the 3×3 cell neighborhood of q's
// cell — and returns the result sorted ascending. The guarantee is
// one-sided: all points within that distance of q are present; points
// further away may be too. Callers reuse buf across queries (pass buf[:0]).
func (g *GridIndex) Candidates(q Point, buf []int32) []int32 {
	if len(g.items) == 0 {
		return buf[:0]
	}
	out := buf[:0]
	// A point within g.cell of q has a cell coordinate within ±1 of q's,
	// including for query points outside the bounding box (where the
	// floor can be negative or past the last column — the clamped range
	// below still covers every cell a reachable point can occupy).
	fx := math.Floor((q.X - g.minX) / g.cell)
	fy := math.Floor((q.Y - g.minY) / g.cell)
	loX, hiX := clampRange(fx, g.cols)
	loY, hiY := clampRange(fy, g.rows)
	for cy := loY; cy <= hiY; cy++ {
		for cx := loX; cx <= hiX; cx++ {
			c := cy*g.cols + cx
			out = append(out, g.items[g.start[c]:g.start[c+1]]...)
		}
	}
	// Cells are visited row-major, so the concatenation is sorted per
	// cell but not globally; callers depend on ascending candidate order
	// (it is what keeps downstream compiled rows in task order).
	slices.Sort(out)
	return out
}

// clampRange intersects [f-1, f+1] (as integer cell coordinates) with
// [0, n-1], returning an empty range (lo > hi) when they are disjoint.
// All comparisons run in float space first so a far-away (or NaN) query
// cannot overflow the int conversion; NaN yields the full range, which
// is a harmless superset.
func clampRange(f float64, n int) (lo, hi int) {
	if f+1 < 0 || f-1 > float64(n-1) {
		return 0, -1
	}
	lo, hi = 0, n-1
	if f-1 > 0 {
		lo = int(f - 1)
	}
	if f+1 < float64(n-1) {
		hi = int(f + 1)
	}
	return lo, hi
}
