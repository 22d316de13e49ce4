package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{TwoPi, 0},
		{-TwoPi, 0},
		{math.Pi, math.Pi},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * TwoPi, 0},
		{TwoPi + 0.5, 0.5},
		{-0.25, TwoPi - 0.25},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEq(got, c.want) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeAngleRangeProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		n := NormalizeAngle(a)
		return n >= 0 && n < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeAngleIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := (rng.Float64() - 0.5) * 100
		n := NormalizeAngle(a)
		if !almostEq(NormalizeAngle(n), n) {
			t.Fatalf("NormalizeAngle not idempotent at %v", a)
		}
	}
}

// modNormalize is NormalizeAngle without its in-range fast path: the
// math.Mod reduction every input used to take.
func modNormalize(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	if a >= TwoPi {
		a = 0
	}
	return a
}

// The fast path returns an in-range angle as it is; math.Mod returns the
// same bits there, so NormalizeAngle must equal the plain reduction bit
// for bit on every input, in range or not.
func TestNormalizeAngleFastPathExact(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(TwoPi, 0), TwoPi, math.Nextafter(TwoPi, 4), -TwoPi, math.Pi, -math.Pi,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100000; i++ {
		edges = append(edges, (rng.Float64()-0.25)*4*TwoPi)
	}
	for _, a := range edges {
		if got, want := math.Float64bits(NormalizeAngle(a)), math.Float64bits(modNormalize(a)); got != want {
			t.Fatalf("NormalizeAngle(%v) bits %#x, math.Mod reduction %#x", a, got, want)
		}
	}
}

func TestAzimuth(t *testing.T) {
	o := Point{0, 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{1, 0}, 0},
		{Point{0, 1}, math.Pi / 2},
		{Point{-1, 0}, math.Pi},
		{Point{0, -1}, 3 * math.Pi / 2},
		{Point{1, 1}, math.Pi / 4},
		{Point{0, 0}, 0}, // coincident
	}
	for _, c := range cases {
		if got := Azimuth(o, c.to); !almostEq(got, c.want) {
			t.Errorf("Azimuth(0,%v) = %v, want %v", c.to, got, c.want)
		}
	}
}

func TestAngDist(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, TwoPi - 0.1, 0.2},
		{3, 3 + math.Pi, math.Pi},
		{-0.1, 0.1, 0.2},
	}
	for _, c := range cases {
		if got := AngDist(c.a, c.b); !almostEq(got, c.want) {
			t.Errorf("AngDist(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAngDistSymmetricProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		d1, d2 := AngDist(a, b), AngDist(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := rng.Float64() * TwoPi
		v := UnitVec(a)
		if !almostEq(v.Norm(), 1) {
			t.Fatalf("UnitVec(%v) has norm %v", a, v.Norm())
		}
		if !almostEq(AngDist(v.Angle(), a), 0) {
			t.Fatalf("UnitVec(%v).Angle() = %v", a, v.Angle())
		}
	}
}

func TestVecOps(t *testing.T) {
	p, q := Point{3, 4}, Point{0, 0}
	if d := p.Dist(q); !almostEq(d, 5) {
		t.Errorf("Dist = %v, want 5", d)
	}
	v := p.Sub(q)
	if v != (Vec{3, 4}) {
		t.Errorf("Sub = %v", v)
	}
	if got := q.Add(v); got != p {
		t.Errorf("Add = %v", got)
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(Vec{1, 1}); !almostEq(got, 7) {
		t.Errorf("Dot = %v", got)
	}
}

func TestDegRoundTrip(t *testing.T) {
	for _, d := range []float64{0, 30, 60, 90, 180, 270, 360} {
		if got := ToDeg(Deg(d)); !almostEq(got, d) {
			t.Errorf("ToDeg(Deg(%v)) = %v", d, got)
		}
	}
	if !almostEq(Deg(180), math.Pi) {
		t.Errorf("Deg(180) = %v", Deg(180))
	}
}
