package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"haste/internal/geom"
)

func testParams() Params {
	return Params{
		Alpha:        10000,
		Beta:         40,
		Radius:       20,
		ChargeAngle:  geom.Deg(60),
		ReceiveAngle: geom.Deg(60),
		SlotSeconds:  60,
		Rho:          1.0 / 12,
		Tau:          1,
	}
}

func TestParamsValidate(t *testing.T) {
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Beta = -1 },
		func(p *Params) { p.Radius = 0 },
		func(p *Params) { p.ChargeAngle = 0 },
		func(p *Params) { p.ChargeAngle = 7 },
		func(p *Params) { p.ReceiveAngle = -1 },
		func(p *Params) { p.SlotSeconds = 0 },
		func(p *Params) { p.Rho = -0.1 },
		func(p *Params) { p.Rho = 1.5 },
		func(p *Params) { p.Tau = -1 },
	}
	for i, mut := range bad {
		q := testParams()
		mut(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("bad params #%d accepted", i)
		}
	}
}

func TestPower(t *testing.T) {
	p := testParams()
	if got := p.Power(0); !almostEq(got, 10000.0/1600) {
		t.Errorf("Power(0) = %v", got)
	}
	if got := p.Power(10); !almostEq(got, 10000.0/2500) {
		t.Errorf("Power(10) = %v", got)
	}
	if got := p.Power(20); !almostEq(got, 10000.0/3600) {
		t.Errorf("Power(20) = %v", got)
	}
	if got := p.Power(20.001); got != 0 {
		t.Errorf("Power beyond radius = %v, want 0", got)
	}
	if got := p.Power(-1); got != 0 {
		t.Errorf("Power(-1) = %v, want 0", got)
	}
	// Monotone decreasing within range.
	prev := math.Inf(1)
	for d := 0.0; d <= 20; d += 0.5 {
		cur := p.Power(d)
		if cur > prev {
			t.Fatalf("Power not decreasing at d=%v", d)
		}
		prev = cur
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// A charger at the origin and a device 10 m along +x facing back (-x).
func facingPair(p Params) (Charger, Task) {
	c := Charger{ID: 0, Pos: geom.Point{X: 0, Y: 0}}
	tk := Task{
		ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi,
		Release: 0, End: 10, Energy: 1000, Weight: 1,
	}
	return c, tk
}

func TestChargeableAndCovers(t *testing.T) {
	p := testParams()
	c, tk := facingPair(p)
	if !p.Chargeable(c, tk) {
		t.Fatal("facing pair should be chargeable")
	}
	if !p.Covers(c, 0, tk) {
		t.Error("charger pointing at device should cover it")
	}
	if p.Covers(c, math.Pi/2, tk) {
		t.Error("charger pointing away should not cover")
	}
	// Device turned away: not chargeable under any orientation.
	tk.Phi = 0
	if p.Chargeable(c, tk) {
		t.Error("device facing away should not be chargeable")
	}
	if p.Covers(c, 0, tk) {
		t.Error("Covers must imply Chargeable")
	}
	// Too far.
	tk.Phi = math.Pi
	tk.Pos = geom.Point{X: 25, Y: 0}
	if p.Chargeable(c, tk) {
		t.Error("device beyond D should not be chargeable")
	}
}

func TestReceivedPower(t *testing.T) {
	p := testParams()
	c, tk := facingPair(p)
	want := p.Power(10)
	if got := receivedPower(p, c, 0, tk); !almostEq(got, want) {
		t.Errorf("ReceivedPower = %v, want %v", got, want)
	}
	if got := receivedPower(p, c, math.Pi, tk); got != 0 {
		t.Errorf("uncovered ReceivedPower = %v, want 0", got)
	}
	// Boundary of the charging sector: azimuth deviation exactly A_s/2.
	theta := geom.Deg(30)
	if got := receivedPower(p, c, theta, tk); !almostEq(got, want) {
		t.Errorf("boundary ReceivedPower = %v, want %v", got, want)
	}
	if got := receivedPower(p, c, geom.Deg(31), tk); got != 0 {
		t.Errorf("just outside boundary = %v, want 0", got)
	}
}

func TestAnisotropicGain(t *testing.T) {
	p := testParams()
	p.AnisotropicGain = true
	c, tk := facingPair(p)
	// Device boresight points straight at the charger → gain 1.
	if got := p.ReceiveGain(c, tk); !almostEq(got, 1) {
		t.Errorf("boresight gain = %v, want 1", got)
	}
	if got := receivedPower(p, c, 0, tk); !almostEq(got, p.Power(10)) {
		t.Errorf("boresight power = %v", got)
	}
	// Rotate the device 30° off boresight (still within A_o/2 = 30°).
	tk.Phi = math.Pi - geom.Deg(30)
	g := p.ReceiveGain(c, tk)
	if !almostEq(g, math.Cos(geom.Deg(30))) {
		t.Errorf("off-boresight gain = %v, want cos30", g)
	}
	if got := receivedPower(p, c, 0, tk); !almostEq(got, p.Power(10)*g) {
		t.Errorf("anisotropic power = %v", got)
	}
	// Gain never exceeds 1 and never negative.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tk.Phi = rng.Float64() * geom.TwoPi
		g := p.ReceiveGain(c, tk)
		if g < 0 || g > 1 {
			t.Fatalf("gain out of range: %v", g)
		}
	}
}

func TestTaskActivity(t *testing.T) {
	tk := Task{Release: 3, End: 7}
	for k, want := range map[int]bool{2: false, 3: true, 6: true, 7: false} {
		if got := tk.ActiveAt(k); got != want {
			t.Errorf("ActiveAt(%d) = %v, want %v", k, got, want)
		}
	}
	if tk.Duration() != 4 {
		t.Errorf("Duration = %d, want 4", tk.Duration())
	}
}

func smallInstance() *Instance {
	p := testParams()
	return &Instance{
		Chargers: []Charger{
			{ID: 0, Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Pos: geom.Point{X: 15, Y: 0}},
			{ID: 2, Pos: geom.Point{X: 100, Y: 100}},
		},
		Tasks: []Task{
			{ID: 0, Pos: geom.Point{X: 7, Y: 0}, Phi: math.Pi, Release: 0, End: 5, Energy: 1e3, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: 8, Y: 0}, Phi: 0, Release: 2, End: 9, Energy: 2e3, Weight: 0.5},
		},
		Params: p,
	}
}

func TestInstanceBasics(t *testing.T) {
	in := smallInstance()
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := in.Horizon(); got != 9 {
		t.Errorf("Horizon = %d, want 9", got)
	}
	if got := in.TotalWeight(); !almostEq(got, 1) {
		t.Errorf("TotalWeight = %v, want 1", got)
	}
	if in.U().Name() != "linear-bounded" {
		t.Errorf("default utility = %q", in.U().Name())
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Instance)
		want   string
	}{
		{func(in *Instance) { in.Chargers[1].ID = 5 }, "IDs must be dense"},
		{func(in *Instance) { in.Tasks[0].ID = 9 }, "IDs must be dense"},
		{func(in *Instance) { in.Tasks[0].End = in.Tasks[0].Release }, "empty window"},
		{func(in *Instance) { in.Tasks[0].Release = -1 }, "negative slot"},
		{func(in *Instance) { in.Tasks[0].Energy = 0 }, "non-positive energy"},
		{func(in *Instance) { in.Tasks[0].Weight = -1 }, "negative weight"},
		{func(in *Instance) { in.Tasks[0].End = in.Tasks[0].Release + 1 }, "2τ"},
		{func(in *Instance) { in.Params.Alpha = 0 }, "Alpha"},
		// Non-finite coordinates used to be accepted and silently collapse
		// to a single spatial-grid cell; they must be rejected up front.
		{func(in *Instance) { in.Chargers[0].Pos.X = math.NaN() }, "non-finite position"},
		{func(in *Instance) { in.Chargers[2].Pos.Y = math.Inf(1) }, "non-finite position"},
		{func(in *Instance) { in.Tasks[0].Pos.X = math.Inf(-1) }, "non-finite position"},
		{func(in *Instance) { in.Tasks[1].Pos.Y = math.NaN() }, "non-finite position"},
		{func(in *Instance) { in.Tasks[0].Phi = math.NaN() }, "non-finite orientation"},
		{func(in *Instance) { in.Tasks[0].Energy = math.NaN() }, "non-finite energy"},
		{func(in *Instance) { in.Tasks[1].Energy = math.Inf(1) }, "non-finite energy"},
		{func(in *Instance) { in.Tasks[0].Weight = math.NaN() }, "non-finite weight"},
		{func(in *Instance) { in.Tasks[1].Weight = math.Inf(1) }, "non-finite weight"},
	}
	for i, c := range cases {
		in := smallInstance()
		c.mutate(in)
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, c.want)
		}
	}
}

func TestChargeableTasks(t *testing.T) {
	in := smallInstance()
	// Charger 0 at origin: task 0 faces it (phi=π) at distance 7 → chargeable.
	// Task 1 faces +x (phi=0) so charger 0 (at −x from it) is NOT in its
	// receiving sector.
	// Charger 1 at (15,0): task 0 at (7,0) faces −x, charger 1 is at +x → no.
	// Task 1 at (8,0) faces +x, charger 1 is at +x, distance 7 → yes.
	// Charger 2 is out of reach of both.
	want := [][]bool{{true, false}, {false, true}, {false, false}}
	for i, c := range in.Chargers {
		for j, tk := range in.Tasks {
			if got := in.Params.Chargeable(c, tk); got != want[i][j] {
				t.Errorf("Chargeable(charger %d, task %d) = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}
