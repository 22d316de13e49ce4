package geom

import "math"

// Sector is a circular sector (pie slice): the set of points within
// distance Radius of Apex whose direction from Apex deviates from
// Orientation by at most HalfAngle. Boundaries are closed, matching the
// paper's dot-product formulation
//
//	s⃗o · r⃗_θ − ‖s⃗o‖·cos(A/2) ≥ 0.
//
// A HalfAngle of π or more makes the sector a full disk.
type Sector struct {
	Apex        Point
	Orientation float64 // direction of the bisector, radians
	HalfAngle   float64 // A/2, radians, in [0, π]
	Radius      float64
}

// Contains reports whether p lies inside the sector (closed boundaries).
// The apex itself is contained: for p = Apex the paper's inequality reads
// 0 ≥ 0.
func (s Sector) Contains(p Point) bool {
	v := p.Sub(s.Apex)
	d := v.Norm()
	if d > s.Radius {
		return false
	}
	if s.HalfAngle >= math.Pi {
		return true
	}
	// v · r_θ ≥ ‖v‖ cos(A/2). For d == 0 both sides are 0.
	return v.Dot(UnitVec(s.Orientation)) >= d*math.Cos(s.HalfAngle)-1e-12
}

// Arc is a closed circular interval of angles: all a with
// AngDist-style circular membership starting at Lo and spanning Width
// counterclockwise. Width is clamped to [0, 2π]; Width == 2π is the full
// circle.
type Arc struct {
	Lo    float64 // normalized start angle in [0, 2π)
	Width float64 // span in [0, 2π]
}

// NewArc builds a normalized arc starting at lo spanning width
// counterclockwise.
func NewArc(lo, width float64) Arc {
	if width >= TwoPi {
		return Arc{0, TwoPi}
	}
	if width < 0 {
		width = 0
	}
	return Arc{NormalizeAngle(lo), width}
}

// ArcAround builds the arc centered at mid with total angular width span.
func ArcAround(mid, span float64) Arc {
	if span >= TwoPi {
		return Arc{0, TwoPi}
	}
	return NewArc(mid-span/2, span)
}

// Full reports whether the arc is the whole circle.
func (a Arc) Full() bool { return a.Width >= TwoPi }

// Contains reports whether angle x lies on the closed arc.
func (a Arc) Contains(x float64) bool {
	if a.Full() {
		return true
	}
	d := NormalizeAngle(NormalizeAngle(x) - a.Lo)
	return d <= a.Width+1e-12
}
