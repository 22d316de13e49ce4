package dominant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/workload"
)

// referenceExtractSubset is the original, quadratic implementation of
// ExtractSubset: every candidate angle scans every arc, candidate sets are
// deduplicated on fmt.Sprint keys, and every distinct set is recentred
// before the maximality filter. It is kept verbatim (renamed, with its
// helpers) as the oracle the production extraction must match bit for
// bit: the same Covers, the same Orientation bits, the same order.
func referenceExtractSubset(in *model.Instance, chargerID int, taskIDs []int) []Policy {
	c := in.Chargers[chargerID]
	p := in.Params

	// T_i: chargeable tasks among the candidates (Algorithm 1, line 1).
	var arcs []arcTask
	for _, id := range taskIDs {
		t := in.Tasks[id]
		if !p.Chargeable(c, t) {
			continue
		}
		var a geom.Arc
		if c.Pos.Dist(t.Pos) == 0 {
			a = geom.NewArc(0, geom.TwoPi) // coincident: covered by any orientation
		} else {
			a = geom.ArcAround(geom.Azimuth(c.Pos, t.Pos), p.ChargeAngle)
		}
		arcs = append(arcs, arcTask{t.ID, a})
	}
	if len(arcs) == 0 {
		return []Policy{{Idle: true}}
	}

	// Candidate orientations: every arc start angle. The covered set is
	// piecewise constant in θ and can only grow when θ crosses a start
	// angle, so each inclusion-maximal set is attained at one of them.
	// Full-circle arcs contribute no events; if all arcs are full, any
	// orientation works.
	var candidates []float64
	for _, a := range arcs {
		if !a.arc.Full() {
			candidates = append(candidates, a.arc.Lo)
		}
	}
	if len(candidates) == 0 {
		candidates = []float64{0}
	}

	seen := make(map[string]Policy)
	for _, theta := range candidates {
		var covers []int
		for _, a := range arcs {
			if a.arc.Contains(theta) {
				covers = append(covers, a.id)
			}
		}
		sort.Ints(covers)
		key := refSetKey(covers)
		if _, ok := seen[key]; !ok {
			seen[key] = Policy{Orientation: refCenterOrientation(theta, covers, arcs), Covers: covers}
		}
	}

	// Keep only maximal sets (Definition 4.1).
	all := make([]Policy, 0, len(seen))
	for _, pol := range seen {
		all = append(all, pol)
	}
	var out []Policy
	for i, a := range all {
		maximal := true
		for j, b := range all {
			if i != j && refStrictSubset(a.Covers, b.Covers) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Orientation != out[j].Orientation {
			return out[i].Orientation < out[j].Orientation
		}
		return refSetKey(out[i].Covers) < refSetKey(out[j].Covers)
	})
	return out
}

// refCenterOrientation recenters a feasible orientation inside the
// intersection of the covering arcs of the covered set, to keep the
// representative orientation away from razor-edge boundaries. theta must
// already cover every task in covers.
func refCenterOrientation(theta float64, covers []int, arcs []arcTask) float64 {
	inSet := make(map[int]bool, len(covers))
	for _, id := range covers {
		inSet[id] = true
	}
	fwd, bwd := geom.TwoPi, geom.TwoPi
	for _, a := range arcs {
		if !inSet[a.id] || a.arc.Full() {
			continue
		}
		f := geom.NormalizeAngle(a.arc.Lo + a.arc.Width - theta) // slack counterclockwise
		b := geom.NormalizeAngle(theta - a.arc.Lo)               // slack clockwise
		if f < fwd {
			fwd = f
		}
		if b < bwd {
			bwd = b
		}
	}
	if fwd >= geom.TwoPi && bwd >= geom.TwoPi {
		return theta
	}
	return geom.NormalizeAngle(theta + (fwd-bwd)/2)
}

// refStrictSubset reports whether sorted slice a ⊂ b strictly.
func refStrictSubset(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// refSetKey builds a canonical map key for a sorted ID set.
func refSetKey(ids []int) string {
	return fmt.Sprint(ids)
}

// assertMatchesReference fails t unless ExtractSubset returns exactly what
// referenceExtractSubset does: the same policies in the same order, with
// bit-identical orientations. Orientations are compared by their bits
// alone, so a NaN one matches itself.
func assertMatchesReference(t *testing.T, in *model.Instance, chargerID int, taskIDs []int, ctx string) {
	t.Helper()
	want := referenceExtractSubset(in, chargerID, taskIDs)
	got := ExtractSubset(in, chargerID, taskIDs)
	bits := func(ps []Policy) []uint64 {
		var out []uint64
		for i := range ps {
			out = append(out, math.Float64bits(ps[i].Orientation))
			ps[i].Orientation = 0
		}
		return out
	}
	if gb, wb := bits(got), bits(want); !reflect.DeepEqual(gb, wb) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ExtractSubset = %v with orientation bits %#x, reference %v with %#x", ctx, got, gb, want, wb)
	}
}

// ringAt places one charger at the origin and task j at azimuth
// azimuthsDeg[j] and distance radii[j], facing back at the charger. The
// charging radius is 10, so a task beyond it is unchargeable, and a task at
// distance 0 sits on the charger.
func ringAt(chargeAngleDeg float64, azimuthsDeg, radii []float64) *model.Instance {
	in := ringInstance(chargeAngleDeg, azimuthsDeg...)
	for j, az := range azimuthsDeg {
		a := geom.Deg(az)
		in.Tasks[j].Pos = geom.Point{X: radii[j] * math.Cos(a), Y: radii[j] * math.Sin(a)}
	}
	return in
}

// chargeableTasks returns T_i for every charger: the IDs of the tasks the
// charger can cover under some orientation, ascending, by a dense O(n·m)
// scan of Params.Chargeable.
func chargeableTasks(in *model.Instance) [][]int {
	out := make([][]int, len(in.Chargers))
	for i, c := range in.Chargers {
		for _, t := range in.Tasks {
			if in.Params.Chargeable(c, t) {
				out[i] = append(out[i], t.ID)
			}
		}
	}
	return out
}

func allIDs(in *model.Instance) []int {
	ids := make([]int, len(in.Tasks))
	for j := range ids {
		ids[j] = j
	}
	return ids
}

func TestExtractMatchesReference(t *testing.T) {
	angles := []float64{10, 60, 90, 179, 180, 200, 359, 360}
	rng := rand.New(rand.NewSource(17))
	for _, angle := range angles {
		for trial := 0; trial < 200; trial++ {
			m := 1 + rng.Intn(24)
			az := make([]float64, m)
			radii := make([]float64, m)
			for j := range az {
				switch rng.Intn(4) {
				case 0: // an exact multiple of 30°
					az[j] = float64(30 * rng.Intn(12))
				case 1: // a duplicate of an earlier azimuth
					az[j] = az[rng.Intn(j+1)]
				default:
					az[j] = rng.Float64() * 360
				}
				radii[j] = 1 + rng.Float64()*8
				if rng.Intn(8) == 0 {
					radii[j] = 10 + rng.Float64()*5 // out of reach
				}
			}
			if rng.Intn(6) == 0 {
				radii[rng.Intn(m)] = 0 // a coincident task
			}
			if rng.Intn(20) == 0 {
				// A NaN position, which Validate rejects; the full
				// receiving angle still makes the task chargeable.
				radii[rng.Intn(m)] = math.NaN()
			}
			in := ringAt(angle, az, radii)
			ctx := fmt.Sprintf("angle %v° trial %d azimuths %v radii %v", angle, trial, az, radii)
			assertMatchesReference(t, in, 0, allIDs(in), ctx)

			// A subset of the IDs, some unchargeable, in shuffled order
			// and with one ID repeated.
			var sub []int
			for j := 0; j < m; j++ {
				if rng.Intn(2) == 0 {
					sub = append(sub, j)
				}
			}
			rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
			assertMatchesReference(t, in, 0, sub, ctx+" subset")
			if len(sub) > 0 {
				sub = append(sub, sub[rng.Intn(len(sub))])
				assertMatchesReference(t, in, 0, sub, ctx+" repeated ID")
			}
		}
	}
}

func TestExtractMatchesReferenceOnWorkloads(t *testing.T) {
	check := func(name string, in *model.Instance) {
		ids := allIDs(in)
		for i := range in.Chargers {
			assertMatchesReference(t, in, i, ids, fmt.Sprintf("%s charger %d", name, i))
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		check(fmt.Sprintf("Default seed %d", seed), workload.Default().Generate(rand.New(rand.NewSource(seed))))
	}
	fleet := workload.FleetScale(2_000).Generate(rand.New(rand.NewSource(1)))
	rows := chargeableTasks(fleet)
	for i := range fleet.Chargers {
		assertMatchesReference(t, fleet, i, rows[i], fmt.Sprintf("FleetScale(2000) charger %d", i))
	}
}

// FuzzExtractSubset decodes a one-charger ring instance from the fuzz
// bytes and holds ExtractSubset to the reference, over all tasks and over
// every other task. Bytes 0–1 give the charge angle in tenths of a degree
// (0.1°–360°). Each following 3-byte group is one task (at most 32): a
// uint16 azimuth, on a half-degree grid when its top bit is clear and on
// a 360/32768° grid otherwise, then a distance of 0–15 (0 sits on the
// charger, beyond 10 is out of reach).
func FuzzExtractSubset(f *testing.F) {
	f.Add([]byte{0x03, 0x84, 0x00, 0x00, 5, 0x00, 0x3c, 5, 0x00, 0xa0, 5})
	f.Add([]byte{0x0e, 0x10, 0x00, 0x10, 3, 0x00, 0x20, 0, 0x80, 0x01, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		angle := float64(binary.BigEndian.Uint16(data)%3600+1) / 10
		var az, radii []float64
		for rest := data[2:]; len(rest) >= 3 && len(az) < 32; rest = rest[3:] {
			u := binary.BigEndian.Uint16(rest)
			if u&0x8000 == 0 {
				az = append(az, float64(u%720)/2)
			} else {
				az = append(az, float64(u&0x7fff)*360/32768)
			}
			radii = append(radii, float64(rest[2]%16))
		}
		in := ringAt(angle, az, radii)
		ctx := fmt.Sprintf("angle %v° azimuths %v radii %v", angle, az, radii)
		assertMatchesReference(t, in, 0, allIDs(in), ctx)
		var odd []int
		for j := 1; j < len(az); j += 2 {
			odd = append(odd, j)
		}
		assertMatchesReference(t, in, 0, odd, ctx+" odd IDs")
	})
}
