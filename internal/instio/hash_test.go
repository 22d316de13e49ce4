package instio

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"haste/internal/geom"
	"haste/internal/workload"
)

func TestHashDeterministic(t *testing.T) {
	in := workload.SmallScale().Generate(rand.New(rand.NewSource(3)))
	h1, err := FromInstance(in, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := FromInstance(in, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if !strings.HasPrefix(h1, "sha256:") || len(h1) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", h1)
	}
}

func TestHashIgnoresCommentAndFormatting(t *testing.T) {
	in := workload.SmallScale().Generate(rand.New(rand.NewSource(4)))
	base, err := FromInstance(in, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	commented, err := FromInstance(in, "a human-readable comment").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if base != commented {
		t.Errorf("comment changed the hash: %s vs %s", base, commented)
	}

	// Re-serializing through Save (indented JSON) and loading back must
	// reach the same content address: the hash is over canonical bytes,
	// not over whatever spelling the client sent.
	var sb strings.Builder
	if err := Save(&sb, in, "different comment, different whitespace"); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := FromInstance(reloaded, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if rh != base {
		t.Errorf("round trip changed the hash: %s vs %s", rh, base)
	}
}

func TestHashSeparatesContent(t *testing.T) {
	cfg := workload.SmallScale()
	a := cfg.Generate(rand.New(rand.NewSource(5)))
	b := cfg.Generate(rand.New(rand.NewSource(6)))
	ha, err := FromInstance(a, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := FromInstance(b, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("distinct instances collided")
	}

	// A one-float perturbation must change the address.
	c := cfg.Generate(rand.New(rand.NewSource(5)))
	c.Tasks[0].Energy += 1e-9
	hc, err := FromInstance(c, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Fatal("perturbed instance kept the same hash")
	}
}

// TestHashNegativeZero: encoding/json spells -0.0 as "-0", so before
// Canonical normalized it, two instances differing only in the sign of a
// zero coordinate — which compile to identical Problems — hashed to
// different content addresses and defeated the serve cache.
func TestHashNegativeZero(t *testing.T) {
	in := workload.SmallScale().Generate(rand.New(rand.NewSource(7)))
	in.Chargers[0].Pos = geom.Point{X: 0, Y: 12}
	in.Tasks[0].Pos.Y = 0
	in.Tasks[0].Phi = 0
	base, err := FromInstance(in, "").Hash()
	if err != nil {
		t.Fatal(err)
	}

	neg := workload.SmallScale().Generate(rand.New(rand.NewSource(7)))
	neg.Chargers[0].Pos = geom.Point{X: math.Copysign(0, -1), Y: 12}
	neg.Tasks[0].Pos.Y = math.Copysign(0, -1)
	neg.Tasks[0].Phi = math.Copysign(0, -1)
	nh, err := FromInstance(neg, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if nh != base {
		t.Errorf("-0.0 coordinates changed the content address: %s vs %s", nh, base)
	}

	// The canonical bytes themselves must not contain a negative zero.
	raw, err := FromInstance(neg, "").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "-0,") || strings.Contains(string(raw), "-0}") {
		t.Errorf("canonical encoding kept a -0: %s", raw)
	}

	// Canonical must not mutate the receiver's slices in place: the file's
	// own spelling (and anything aliasing it) stays untouched.
	f := FromInstance(neg, "")
	if _, err := f.Canonical(); err != nil {
		t.Fatal(err)
	}
	if !math.Signbit(f.Charger[0].X) {
		t.Error("Canonical mutated the receiver's charger slice")
	}
}

func TestCanonicalNormalizesEmptySlices(t *testing.T) {
	f := File{Version: SchemaVersion, Comment: "x"}
	raw, err := f.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if strings.Contains(s, "null") {
		t.Errorf("canonical encoding contains null slices: %s", s)
	}
	if strings.Contains(s, "comment") {
		t.Errorf("canonical encoding kept the comment: %s", s)
	}
}
