package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSectorContainsBasic(t *testing.T) {
	// 60° sector pointing along +x with radius 10.
	s := Sector{Apex: Point{0, 0}, Orientation: 0, HalfAngle: Deg(30), Radius: 10}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 0}, true},   // on bisector
		{Point{0, 0}, true},   // apex
		{Point{10, 0}, true},  // boundary radius
		{Point{11, 0}, false}, // beyond radius
		{Point{5, 5}, false},  // 45° off bisector
		{Point{5 * math.Cos(Deg(30)), 5 * math.Sin(Deg(30))}, true},  // boundary angle
		{Point{5 * math.Cos(Deg(31)), 5 * math.Sin(Deg(31))}, false}, // just outside
		{Point{-5, 0}, false}, // behind
	}
	for _, c := range cases {
		if got := s.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSectorFullDisk(t *testing.T) {
	s := Sector{Apex: Point{1, 1}, Orientation: 2, HalfAngle: math.Pi, Radius: 3}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := rng.Float64() * TwoPi
		r := rng.Float64() * 3
		p := s.Apex.Add(UnitVec(a).Scale(r))
		if !s.Contains(p) {
			t.Fatalf("full-disk sector should contain %v", p)
		}
	}
	if s.Contains(Point{1, 4.5}) {
		t.Error("point beyond radius contained")
	}
}

// Contains must agree with the direct angular-distance formulation.
func TestSectorContainsMatchesAngDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		s := Sector{
			Apex:        Point{rng.Float64() * 10, rng.Float64() * 10},
			Orientation: rng.Float64() * TwoPi,
			HalfAngle:   rng.Float64() * math.Pi,
			Radius:      1 + rng.Float64()*10,
		}
		p := Point{rng.Float64() * 20, rng.Float64() * 20}
		d := p.Dist(s.Apex)
		want := d <= s.Radius && AngDist(Azimuth(s.Apex, p), s.Orientation) <= s.HalfAngle+1e-9
		got := s.Contains(p)
		// Skip razor-edge disagreements caused by float comparison of the
		// two formulations exactly at the boundary.
		edge := math.Abs(AngDist(Azimuth(s.Apex, p), s.Orientation)-s.HalfAngle) < 1e-6 ||
			math.Abs(d-s.Radius) < 1e-9
		if got != want && !edge {
			t.Fatalf("Contains mismatch: sector %+v point %v got %v want %v", s, p, got, want)
		}
	}
}

func TestArcContains(t *testing.T) {
	a := NewArc(Deg(350), Deg(20)) // wraps through 0
	for _, c := range []struct {
		x    float64
		want bool
	}{
		{Deg(355), true},
		{Deg(0), true},
		{Deg(5), true},
		{Deg(10), true},
		{Deg(350), true},
		{Deg(11), false},
		{Deg(349), false},
		{Deg(180), false},
	} {
		if got := a.Contains(c.x); got != c.want {
			t.Errorf("Arc.Contains(%v°) = %v, want %v", ToDeg(c.x), got, c.want)
		}
	}
}

func TestArcFull(t *testing.T) {
	a := NewArc(1.23, TwoPi+1)
	if !a.Full() {
		t.Fatal("expected full arc")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if !a.Contains(rng.Float64() * TwoPi) {
			t.Fatal("full arc must contain everything")
		}
	}
}

func TestArcAround(t *testing.T) {
	a := ArcAround(Deg(10), Deg(40)) // [350°, 30°]
	if !a.Contains(Deg(355)) || !a.Contains(Deg(25)) || a.Contains(Deg(45)) || a.Contains(Deg(345)) {
		t.Errorf("ArcAround wrong: %+v", a)
	}
	if !almostEq(a.Lo, Deg(350)) {
		t.Errorf("Lo = %v°, want 350°", ToDeg(a.Lo))
	}
	if !almostEq(a.Width, Deg(40)) {
		t.Errorf("Width = %v°, want 40°", ToDeg(a.Width))
	}
}

// Randomized: Arc.Contains must agree with AngDist-based membership for
// arcs built by ArcAround.
func TestArcContainsMatchesAngDist(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		mid := rng.Float64() * TwoPi
		span := rng.Float64() * TwoPi
		a := ArcAround(mid, span)
		x := rng.Float64() * TwoPi
		want := AngDist(x, mid) <= span/2+1e-9
		got := a.Contains(x)
		if got != want && math.Abs(AngDist(x, mid)-span/2) > 1e-6 {
			t.Fatalf("mismatch: mid=%v span=%v x=%v got=%v want=%v", mid, span, x, got, want)
		}
	}
}
