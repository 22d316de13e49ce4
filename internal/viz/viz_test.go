package viz

import (
	"math"
	"strings"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/testbed"
)

func tiny() *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{
			{ID: 0, Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Pos: geom.Point{X: 10, Y: 10}},
		},
		Tasks: []model.Task{
			{ID: 0, Pos: geom.Point{X: 5, Y: 1}, Phi: math.Pi, Release: 0, End: 3, Energy: 100, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: 5, Y: 9}, Phi: 0, Release: 1, End: 4, Energy: 100, Weight: 0.5},
		},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 15,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(180),
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
}

func TestFieldMap(t *testing.T) {
	in := tiny()
	var sb strings.Builder
	if err := FieldMap(&sb, in, nil, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"A", "B", "0", "1", "field"} {
		if !strings.Contains(out, want) {
			t.Errorf("map missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 6 {
		t.Errorf("map too short: %d lines", len(lines))
	}
	for _, l := range lines[:len(lines)-1] {
		if len(l) != 40 {
			t.Errorf("row width %d, want 40: %q", len(l), l)
		}
	}
}

func TestFieldMapWithOrientations(t *testing.T) {
	in := tiny()
	var sb strings.Builder
	orient := []float64{0, math.NaN()}
	if err := FieldMap(&sb, in, orient, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ">") {
		t.Errorf("beam arrow missing:\n%s", sb.String())
	}
}

func TestFieldMapTestbedTopology(t *testing.T) {
	in := testbed.Topology1()
	var sb strings.Builder
	if err := FieldMap(&sb, in, nil, 60); err != nil {
		t.Fatal(err)
	}
	// All 8 chargers visible.
	for _, g := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		if !strings.Contains(sb.String(), g) {
			t.Errorf("topology map missing charger %s", g)
		}
	}
}

func TestArrowFor(t *testing.T) {
	cases := map[float64]byte{
		0:               '>',
		math.Pi / 2:     '^',
		math.Pi:         '<',
		3 * math.Pi / 2: 'v',
	}
	for theta, want := range cases {
		if got := arrowFor(theta); got != want {
			t.Errorf("arrowFor(%v) = %c, want %c", theta, got, want)
		}
	}
}
