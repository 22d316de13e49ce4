// Package geom provides the 2D geometric substrate for the HASTE
// directional wireless charging model: points and vectors, angle
// normalization, azimuths, circular (angular) intervals, and sector
// containment tests.
//
// All angles are in radians. Normalized angles live in [0, 2π). The
// directional charging model of the paper is expressed with dot products
// (closed boundary conditions); this package mirrors that convention so
// that points exactly on a sector boundary count as covered.
package geom

import "math"

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// Point is a location in the 2D plane Ω.
type Point struct {
	X, Y float64
}

// Vec is a 2D displacement vector.
type Vec struct {
	X, Y float64
}

// Sub returns the vector from q to p, i.e. p − q.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Add translates the point by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Dist returns the Euclidean distance ‖pq‖.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length ‖v‖.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// UnitVec returns the unit vector r_θ = (cos θ, sin θ).
func UnitVec(theta float64) Vec {
	return Vec{math.Cos(theta), math.Sin(theta)}
}

// Angle returns the direction of v in [0, 2π). The zero vector maps to 0.
func (v Vec) Angle() float64 {
	if v.X == 0 && v.Y == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(v.Y, v.X))
}

// NormalizeAngle maps any finite angle to the canonical range [0, 2π).
func NormalizeAngle(a float64) float64 {
	if a >= 0 && a < TwoPi {
		return a // math.Mod(a, TwoPi) is a itself here, -0 included
	}
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	// math.Mod can return exactly TwoPi-ε accumulated to TwoPi after the
	// correction above only through floating error; clamp defensively.
	if a >= TwoPi {
		a = 0
	}
	return a
}

// Azimuth returns the direction of the ray from `from` to `to` in [0, 2π).
// Coincident points yield 0.
func Azimuth(from, to Point) float64 {
	return to.Sub(from).Angle()
}

// AngDist returns the absolute circular distance between angles a and b,
// a value in [0, π].
func AngDist(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = TwoPi - d
	}
	return d
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }

// ToDeg converts radians to degrees.
func ToDeg(r float64) float64 { return r * 180 / math.Pi }
