package model

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/geom"
)

// Seeded randomized property tests for the directional charging-power model
// of §3: the invariants the rest of the pipeline (cover-list compilation,
// greedy evaluation) silently relies on. Each property is checked over many
// random scenes with boundary margins, so float fuzz at sector edges cannot
// flake the suite.

const propTrials = 2000

// propParams draws physically valid parameters. Angles stay a margin away
// from 0 and 2π so sector-membership margins below are meaningful.
func propParams(rng *rand.Rand) Params {
	p := Params{
		Alpha:        0.5 + 100*rng.Float64(),
		Beta:         5 * rng.Float64(),
		Radius:       1 + 29*rng.Float64(),
		ChargeAngle:  0.1 + (geom.TwoPi-0.2)*rng.Float64(),
		ReceiveAngle: 0.1 + (geom.TwoPi-0.2)*rng.Float64(),
		SlotSeconds:  1 + 120*rng.Float64(),
		Rho:          rng.Float64(),
		Tau:          rng.Intn(3),
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// receivedPower is P_r(s_i, θ_i, o_j, φ_j): the instantaneous power task t
// harvests from charger c oriented at theta — the full directional
// condition (Covers) times the distance term, scaled by the device-side
// gain under AnisotropicGain. The compile (core's slot-energy rows)
// composes Chargeable, Power and ReceiveGain the same way; the property
// tests below hold those parts to the paper's sector conditions through
// it.
func receivedPower(p Params, c Charger, theta float64, t Task) float64 {
	if !p.Covers(c, theta, t) {
		return 0
	}
	pw := p.Power(c.Pos.Dist(t.Pos))
	if p.AnisotropicGain {
		pw *= p.ReceiveGain(c, t)
	}
	return pw
}

func propPoint(rng *rand.Rand, span float64) geom.Point {
	return geom.Point{X: span * (2*rng.Float64() - 1), Y: span * (2*rng.Float64() - 1)}
}

// TestPowerZeroBeyondRadius: P_r is exactly 0 past D and strictly positive
// (α/(d+β)²) inside.
func TestPowerZeroBeyondRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		dOut := p.Radius * (1 + 1e-9 + 10*rng.Float64())
		if got := p.Power(dOut); got != 0 {
			t.Fatalf("trial %d: Power(%g) = %g beyond Radius %g, want 0", trial, dOut, got, p.Radius)
		}
		dIn := p.Radius * rng.Float64()
		want := p.Alpha / ((dIn + p.Beta) * (dIn + p.Beta))
		if got := p.Power(dIn); got != want || got <= 0 {
			t.Fatalf("trial %d: Power(%g) = %g, want %g > 0", trial, dIn, got, want)
		}
	}
}

// TestPowerMonotoneNonIncreasing: within [0, D] the distance factor never
// increases with distance.
func TestPowerMonotoneNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		d1 := p.Radius * rng.Float64()
		d2 := p.Radius * rng.Float64()
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		if p.Power(d1) < p.Power(d2) {
			t.Fatalf("trial %d: Power(%g)=%g < Power(%g)=%g", trial, d1, p.Power(d1), d2, p.Power(d2))
		}
	}
}

// placeCovered builds a charger/orientation/task trio that is strictly
// inside every condition of the charging model: distance below D and both
// sector deviations below their half-angles by the given margin (radians
// for the angles, fraction of D for the distance).
func placeCovered(rng *rand.Rand, p Params, margin float64) (Charger, float64, Task) {
	c := Charger{ID: 0, Pos: propPoint(rng, 40)}
	dist := (0.05 + 0.9*rng.Float64()) * p.Radius
	az := geom.TwoPi * rng.Float64() // direction charger → device
	task := Task{
		ID:      0,
		Pos:     c.Pos.Add(geom.UnitVec(az).Scale(dist)),
		Release: 0, End: 1, Energy: 1, Weight: 1,
	}
	// Charger orientation: within A_s/2 − margin of the device direction.
	sendSlack := p.ChargeAngle/2 - margin
	if sendSlack < 0 {
		sendSlack = 0
	}
	theta := geom.NormalizeAngle(az + sendSlack*(2*rng.Float64()-1))
	// Device orientation: the charger sits at azimuth az+π from the device;
	// point φ within A_o/2 − margin of that.
	recvSlack := p.ReceiveAngle/2 - margin
	if recvSlack < 0 {
		recvSlack = 0
	}
	task.Phi = geom.NormalizeAngle(az + math.Pi + recvSlack*(2*rng.Float64()-1))
	return c, theta, task
}

// TestReceivedPowerSectorConditions: power is positive strictly inside both
// sectors, zero when the charger aims elsewhere, zero when the device faces
// away, and zero beyond D — each violated condition alone kills the power.
func TestReceivedPowerSectorConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const margin = 0.02 // radians clear of the sector boundary
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		c, theta, task := placeCovered(rng, p, margin)
		if got := receivedPower(p, c, theta, task); got <= 0 {
			t.Fatalf("trial %d: covered pair got power %g, want > 0", trial, got)
		}

		// Rotate the charger to aim strictly outside A_s/2 (when the
		// charging sector is not the full disk).
		if p.ChargeAngle/2+margin < math.Pi {
			az := geom.Azimuth(c.Pos, task.Pos)
			dev := p.ChargeAngle/2 + margin + (math.Pi-p.ChargeAngle/2-margin)*rng.Float64()
			sign := float64(1)
			if rng.Intn(2) == 0 {
				sign = -1
			}
			away := geom.NormalizeAngle(az + sign*dev)
			if got := receivedPower(p, c, away, task); got != 0 {
				t.Fatalf("trial %d: charger aimed %g rad off still delivers %g", trial, dev, got)
			}
		}

		// Turn the device to face strictly away from the charger.
		if p.ReceiveAngle/2+margin < math.Pi {
			back := geom.Azimuth(task.Pos, c.Pos)
			dev := p.ReceiveAngle/2 + margin + (math.Pi-p.ReceiveAngle/2-margin)*rng.Float64()
			sign := float64(1)
			if rng.Intn(2) == 0 {
				sign = -1
			}
			turned := task
			turned.Phi = geom.NormalizeAngle(back + sign*dev)
			if got := receivedPower(p, c, theta, turned); got != 0 {
				t.Fatalf("trial %d: device facing %g rad away still receives %g", trial, dev, got)
			}
		}

		// Push the device beyond D along the same azimuth.
		far := task
		az := geom.Azimuth(c.Pos, task.Pos)
		far.Pos = c.Pos.Add(geom.UnitVec(az).Scale(p.Radius * (1.001 + rng.Float64())))
		if got := receivedPower(p, c, theta, far); got != 0 {
			t.Fatalf("trial %d: device beyond D still receives %g", trial, got)
		}
	}
}

// rotateAbout rotates point q about center by angle a.
func rotateAbout(q, center geom.Point, a float64) geom.Point {
	v := q.Sub(center)
	sin, cos := math.Sincos(a)
	return center.Add(geom.Vec{X: v.X*cos - v.Y*sin, Y: v.X*sin + v.Y*cos})
}

// TestReceivedPowerRotationInvariant: jointly rotating the whole scene
// (charger position, orientation, device position, device orientation)
// about an arbitrary center leaves the received power unchanged up to
// float round-off — with and without the anisotropic receive gain.
func TestReceivedPowerRotationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const relTol = 1e-9
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		p.AnisotropicGain = trial%2 == 1
		c, theta, task := placeCovered(rng, p, 0.02)
		base := receivedPower(p, c, theta, task)

		center := propPoint(rng, 50)
		a := geom.TwoPi * rng.Float64()
		rc := Charger{ID: c.ID, Pos: rotateAbout(c.Pos, center, a)}
		rtask := task
		rtask.Pos = rotateAbout(task.Pos, center, a)
		rtask.Phi = geom.NormalizeAngle(task.Phi + a)
		rtheta := geom.NormalizeAngle(theta + a)

		got := receivedPower(p, rc, rtheta, rtask)
		if math.Abs(got-base) > relTol*math.Max(math.Abs(base), 1) {
			t.Fatalf("trial %d (aniso=%v): power %g before rotation, %g after (Δ=%g)",
				trial, p.AnisotropicGain, base, got, got-base)
		}
	}
}

// TestReceivedPowerTranslationInvariant: jointly translating the scene
// leaves the received power unchanged up to float round-off.
func TestReceivedPowerTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const relTol = 1e-9
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		p.AnisotropicGain = trial%2 == 1
		c, theta, task := placeCovered(rng, p, 0.02)
		base := receivedPower(p, c, theta, task)

		shift := propPoint(rng, 1000).Sub(geom.Point{})
		tc := Charger{ID: c.ID, Pos: c.Pos.Add(shift)}
		ttask := task
		ttask.Pos = task.Pos.Add(shift)

		got := receivedPower(p, tc, theta, ttask)
		if math.Abs(got-base) > relTol*math.Max(math.Abs(base), 1) {
			t.Fatalf("trial %d: power %g before translation, %g after", trial, base, got)
		}
	}
}

// TestReceiveGainBounds: the anisotropic gain is always in [0, 1], reaches
// 1 exactly on the device's boresight, and never increases the received
// power relative to the isotropic model.
func TestReceiveGainBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		c, theta, task := placeCovered(rng, p, 0.02)
		g := p.ReceiveGain(c, task)
		if g < 0 || g > 1 {
			t.Fatalf("trial %d: gain %g outside [0,1]", trial, g)
		}
		boresight := task
		boresight.Phi = geom.Azimuth(task.Pos, c.Pos)
		if gb := p.ReceiveGain(c, boresight); math.Abs(gb-1) > 1e-12 {
			t.Fatalf("trial %d: boresight gain %g, want 1", trial, gb)
		}
		iso := receivedPower(p, c, theta, task)
		p.AnisotropicGain = true
		if aniso := receivedPower(p, c, theta, task); aniso > iso+1e-15 {
			t.Fatalf("trial %d: anisotropic power %g exceeds isotropic %g", trial, aniso, iso)
		}
	}
}

// TestChargeableMatchesCoverage: Chargeable must be exactly "some
// orientation covers the pair": aiming straight at the device realizes it,
// and receivedPower is zero for every sampled orientation otherwise.
func TestChargeableMatchesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < propTrials; trial++ {
		p := propParams(rng)
		c := Charger{ID: 0, Pos: propPoint(rng, 20)}
		task := Task{
			ID: 0, Pos: propPoint(rng, 20), Phi: geom.TwoPi * rng.Float64(),
			Release: 0, End: 1, Energy: 1, Weight: 1,
		}
		direct := geom.Azimuth(c.Pos, task.Pos)
		if p.Chargeable(c, task) {
			if got := receivedPower(p, c, direct, task); got <= 0 {
				t.Fatalf("trial %d: chargeable pair gets %g when aimed directly", trial, got)
			}
		} else {
			for s := 0; s < 16; s++ {
				theta := geom.TwoPi * float64(s) / 16
				if got := receivedPower(p, c, theta, task); got != 0 {
					t.Fatalf("trial %d: unchargeable pair receives %g at θ=%g", trial, got, theta)
				}
			}
			if got := receivedPower(p, c, direct, task); got != 0 {
				t.Fatalf("trial %d: unchargeable pair receives %g aimed directly", trial, got)
			}
		}
	}
}
