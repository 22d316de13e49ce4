package geom

import (
	"math"
	"math/rand"
	"testing"
)

// Seeded randomized property tests for the sector and arc primitives the
// charging model is built on. Points are sampled a margin away from the
// sector boundary so the closed-boundary epsilons cannot flake the suite.

const sectorTrials = 4000

func randPoint(rng *rand.Rand, span float64) Point {
	return Point{X: span * (2*rng.Float64() - 1), Y: span * (2*rng.Float64() - 1)}
}

func randSector(rng *rand.Rand) Sector {
	return Sector{
		Apex:        randPoint(rng, 30),
		Orientation: TwoPi * rng.Float64(),
		HalfAngle:   0.05 + (math.Pi-0.1)*rng.Float64(),
		Radius:      1 + 20*rng.Float64(),
	}
}

// TestSectorContainsMatchesPolar: Contains must agree with the polar
// definition — distance within Radius and angular deviation within
// HalfAngle — for points sampled clear of both boundaries.
func TestSectorContainsMatchesPolar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const margin = 0.01
	for trial := 0; trial < sectorTrials; trial++ {
		s := randSector(rng)
		// Sample in polar coordinates around the apex so we control the
		// margin to each boundary exactly.
		d := s.Radius * (0.05 + 1.5*rng.Float64())
		dev := math.Pi * rng.Float64()
		sign := float64(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		p := s.Apex.Add(UnitVec(s.Orientation + sign*dev).Scale(d))

		inRadius := d <= s.Radius*(1-margin)
		outRadius := d >= s.Radius*(1+margin)
		inAngle := dev <= s.HalfAngle-margin
		outAngle := dev >= s.HalfAngle+margin
		switch {
		case inRadius && inAngle:
			if !s.Contains(p) {
				t.Fatalf("trial %d: interior point (d=%g dev=%g) not contained in %+v", trial, d, dev, s)
			}
		case outRadius || (outAngle && !outRadius && inRadius):
			if outRadius || outAngle {
				if s.Contains(p) {
					t.Fatalf("trial %d: exterior point (d=%g dev=%g) contained in %+v", trial, d, dev, s)
				}
			}
		}
	}
}

// TestSectorApexContained: the apex satisfies the paper's inequality (0 ≥ 0)
// for every sector.
func TestSectorApexContained(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < sectorTrials; trial++ {
		s := randSector(rng)
		if !s.Contains(s.Apex) {
			t.Fatalf("trial %d: apex not contained in %+v", trial, s)
		}
	}
}

// TestSectorRotationInvariant: rotating the sector orientation and the
// query point jointly about the apex preserves membership.
func TestSectorRotationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const margin = 0.01
	for trial := 0; trial < sectorTrials; trial++ {
		s := randSector(rng)
		d := s.Radius * (0.05 + 1.5*rng.Float64())
		dev := math.Pi * rng.Float64()
		// Stay clear of both boundaries so round-off in the rotation
		// cannot move the point across.
		if math.Abs(d-s.Radius) < margin*s.Radius || math.Abs(dev-s.HalfAngle) < margin {
			continue
		}
		p := s.Apex.Add(UnitVec(s.Orientation + dev).Scale(d))
		before := s.Contains(p)

		a := TwoPi * rng.Float64()
		rs := s
		rs.Orientation = NormalizeAngle(s.Orientation + a)
		v := p.Sub(s.Apex)
		sin, cos := math.Sincos(a)
		rp := s.Apex.Add(Vec{X: v.X*cos - v.Y*sin, Y: v.X*sin + v.Y*cos})
		if after := rs.Contains(rp); after != before {
			t.Fatalf("trial %d: membership flipped %v→%v under rotation by %g", trial, before, after, a)
		}
	}
}

// TestFullDiskSector: HalfAngle ≥ π must behave as a plain disk.
func TestFullDiskSector(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < sectorTrials; trial++ {
		s := randSector(rng)
		s.HalfAngle = math.Pi + 2*rng.Float64()
		p := randPoint(rng, 60)
		want := s.Apex.Dist(p) <= s.Radius
		if got := s.Contains(p); got != want {
			t.Fatalf("trial %d: full-disk Contains=%v, distance check=%v", trial, got, want)
		}
	}
}

// TestArcAroundMembership: ArcAround(mid, span) contains exactly the angles
// within span/2 of mid (sampled with a margin).
func TestArcAroundMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const margin = 1e-6
	for trial := 0; trial < sectorTrials; trial++ {
		mid := TwoPi * rng.Float64()
		span := 0.01 + (TwoPi-0.02)*rng.Float64()
		a := ArcAround(mid, span)
		dev := math.Pi * rng.Float64()
		sign := float64(1)
		if rng.Intn(2) == 0 {
			sign = -1
		}
		x := mid + sign*dev
		switch {
		case dev <= span/2-margin:
			if !a.Contains(x) {
				t.Fatalf("trial %d: %g (dev %g) not in ArcAround(%g, %g)", trial, x, dev, mid, span)
			}
		case dev >= span/2+margin:
			if a.Contains(x) {
				t.Fatalf("trial %d: %g (dev %g) in ArcAround(%g, %g)", trial, x, dev, mid, span)
			}
		}
	}
}
