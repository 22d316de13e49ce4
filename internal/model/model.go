// Package model defines the HASTE problem model from the paper: directional
// wireless chargers, rechargeable devices, charging tasks (five-tuples),
// the discrete time grid, the directional charging power model, and
// charging-utility functions.
//
// Units: distances in meters, time in seconds, power in watts, energy in
// joules, angles in radians.
package model

import (
	"errors"
	"fmt"
	"math"

	"haste/internal/geom"
)

// Charger is a static directional wireless charger s_i. Its orientation is
// the scheduling decision and therefore not part of the model object.
type Charger struct {
	ID  int
	Pos geom.Point
}

// Task is a charging task T_j = ⟨o_j, φ_j, t_r, t_e, E_j⟩ launched by a
// rechargeable device. Times are expressed in whole time slots: the task is
// active during slots [Release, End) — the paper assumes t_r falls at the
// beginning of a slot and t_e at the end of one.
type Task struct {
	ID      int
	Pos     geom.Point // o_j: device position
	Phi     float64    // φ_j: device receiving orientation, radians
	Release int        // t_r / T_s: first active slot (inclusive)
	End     int        // t_e / T_s: one past the last active slot (exclusive)
	Energy  float64    // E_j: required charging energy, joules
	Weight  float64    // w_j: weight in the overall utility
}

// Duration returns the task's lifetime in slots.
func (t Task) Duration() int { return t.End - t.Release }

// ActiveAt reports whether the task is alive during slot k.
func (t Task) ActiveAt(k int) bool { return k >= t.Release && k < t.End }

// Params holds the network-wide physical and scheduling constants of §3.
type Params struct {
	Alpha  float64 // α: charging model constant (hardware dependent)
	Beta   float64 // β: charging model constant
	Radius float64 // D: radius of the charging and receiving areas, meters

	ChargeAngle  float64 // A_s: charging angle of chargers, radians
	ReceiveAngle float64 // A_o: receiving angle of devices, radians

	SlotSeconds float64 // T_s: duration of a time slot, seconds
	Rho         float64 // ρ ∈ (0,1): switching delay, fraction of a slot
	Tau         int     // τ: rescheduling delay, whole time slots

	// ProportionalSwitching is an extension of the paper's switching
	// model: instead of a fixed delay of ρ·T_s per reorientation, the
	// delay scales with the rotation angle — ρ·T_s·(Δθ/π), so a U-turn
	// costs the full ρ and small nudges almost nothing. This matches
	// rotating heads with constant angular speed. The worst case equals
	// the paper's model, so the (1−ρ)(1−1/e) guarantee is unaffected.
	// Off by default.
	ProportionalSwitching bool

	// AnisotropicGain enables the extension of the receiving model cited
	// as future work in the paper ([57]): received power is additionally
	// scaled by cos of the angle between the device's orientation and the
	// direction back to the charger, normalized so the gain is 1 on the
	// device's boresight and falls to cos(A_o/2) at the receiving-sector
	// edge. Off by default to match the paper's model.
	AnisotropicGain bool
}

// Validate checks the physical sanity of the parameters.
func (p Params) Validate() error {
	switch {
	case p.Alpha <= 0:
		return errors.New("model: Alpha must be positive")
	case p.Beta < 0:
		return errors.New("model: Beta must be non-negative")
	case p.Radius <= 0:
		return errors.New("model: Radius must be positive")
	case p.ChargeAngle <= 0 || p.ChargeAngle > geom.TwoPi:
		return errors.New("model: ChargeAngle must be in (0, 2π]")
	case p.ReceiveAngle <= 0 || p.ReceiveAngle > geom.TwoPi:
		return errors.New("model: ReceiveAngle must be in (0, 2π]")
	case p.SlotSeconds <= 0:
		return errors.New("model: SlotSeconds must be positive")
	case p.Rho < 0 || p.Rho > 1:
		return errors.New("model: Rho must be in [0, 1]")
	case p.Tau < 0:
		return errors.New("model: Tau must be non-negative")
	}
	return nil
}

// SwitchLoss returns the fraction of a slot lost to a reorientation from
// angle `from` to angle `to` under the configured switching model. Pass
// from = NaN for a charger that had no orientation yet (θ = Φ): the first
// orientation always costs the full ρ.
func (p Params) SwitchLoss(from, to float64) float64 {
	if math.IsNaN(to) {
		return 0
	}
	if !p.ProportionalSwitching || math.IsNaN(from) {
		return p.Rho
	}
	return p.Rho * geom.AngDist(from, to) / math.Pi
}

// Power returns the distance-dependent factor P_r(s_i, o_j) of the charging
// model: α/(d+β)² when d ≤ D and 0 otherwise. This is the power a device at
// distance d receives when both sector conditions hold.
func (p Params) Power(dist float64) float64 {
	if dist > p.Radius || dist < 0 {
		return 0
	}
	return p.Alpha / ((dist + p.Beta) * (dist + p.Beta))
}

// PowerBetween returns P_r(s_i, o_j) for a charger and a device position,
// ignoring orientations (used throughout the HASTE-R objective, where
// coverage is decided by the chosen dominant task set).
func (p Params) PowerBetween(charger, device geom.Point) float64 {
	return p.Power(charger.Dist(device))
}

// Chargeable reports whether charger c can ever deliver non-zero power to
// task t under some charger orientation: the pair must be within distance
// D and the charger must lie inside the device's fixed receiving sector.
func (p Params) Chargeable(c Charger, t Task) bool {
	if c.Pos.Dist(t.Pos) > p.Radius {
		return false
	}
	recv := geom.Sector{
		Apex:        t.Pos,
		Orientation: t.Phi,
		HalfAngle:   p.ReceiveAngle / 2,
		Radius:      p.Radius,
	}
	return recv.Contains(c.Pos)
}

// Covers reports whether charger c with orientation theta covers task t:
// the full directional condition of the paper's charging model.
func (p Params) Covers(c Charger, theta float64, t Task) bool {
	if !p.Chargeable(c, t) {
		return false
	}
	send := geom.Sector{
		Apex:        c.Pos,
		Orientation: theta,
		HalfAngle:   p.ChargeAngle / 2,
		Radius:      p.Radius,
	}
	return send.Contains(t.Pos)
}

// ReceivedPower returns P_r(s_i, θ_i, o_j, φ_j): the instantaneous power
// task t harvests from charger c oriented at theta. With AnisotropicGain
// the distance term is scaled by the device-side directional gain.
func (p Params) ReceivedPower(c Charger, theta float64, t Task) float64 {
	if !p.Covers(c, theta, t) {
		return 0
	}
	pw := p.Power(c.Pos.Dist(t.Pos))
	if p.AnisotropicGain {
		pw *= p.ReceiveGain(c, t)
	}
	return pw
}

// ReceiveGain returns the device-side anisotropic gain factor in
// (0, 1]: cos of the deviation of the charger from the device's boresight.
// It is 1 when the charger sits exactly along φ_j. Only meaningful when
// the pair is chargeable.
func (p Params) ReceiveGain(c Charger, t Task) float64 {
	if c.Pos.Dist(t.Pos) == 0 {
		return 1
	}
	dev := geom.AngDist(geom.Azimuth(t.Pos, c.Pos), t.Phi)
	g := math.Cos(dev)
	if g < 0 {
		g = 0
	}
	return g
}

// Instance is a complete HASTE problem: chargers, tasks, parameters and the
// utility model.
type Instance struct {
	Chargers []Charger
	Tasks    []Task
	Params   Params
	Utility  Utility // nil means LinearBounded (the paper's default)
}

// U returns the instance's utility function, defaulting to the paper's
// linear-and-bounded model.
func (in *Instance) U() Utility {
	if in.Utility == nil {
		return LinearBounded{}
	}
	return in.Utility
}

// Horizon returns K: the number of time slots spanned by all tasks
// (max End over tasks), 0 if there are none.
func (in *Instance) Horizon() int {
	k := 0
	for _, t := range in.Tasks {
		if t.End > k {
			k = t.End
		}
	}
	return k
}

// TotalWeight returns Σ_j w_j, the maximum achievable overall utility.
func (in *Instance) TotalWeight() float64 {
	var w float64
	for _, t := range in.Tasks {
		w += t.Weight
	}
	return w
}

// Validate checks structural consistency: parameter sanity, unique dense
// IDs, finite coordinates, positive energies and weights, sane task
// windows, and the paper's standing assumption t_e − t_r ≥ 2τ·T_s.
func (in *Instance) Validate() error {
	if err := in.Params.Validate(); err != nil {
		return err
	}
	for i, c := range in.Chargers {
		if c.ID != i {
			return fmt.Errorf("model: charger at index %d has ID %d (IDs must be dense)", i, c.ID)
		}
		if !finite(c.Pos.X) || !finite(c.Pos.Y) {
			return fmt.Errorf("model: charger %d has non-finite position (%g, %g)", i, c.Pos.X, c.Pos.Y)
		}
	}
	for j, t := range in.Tasks {
		if t.ID != j {
			return fmt.Errorf("model: task at index %d has ID %d (IDs must be dense)", j, t.ID)
		}
		if err := in.CheckTask(t); err != nil {
			return err
		}
	}
	return nil
}

// CheckTask validates one task against the instance's parameters: finite
// coordinates and orientation (a NaN or ±Inf position would land in an
// arbitrary spatial-grid cell and be scheduled as garbage — rejected here
// so instio.Load, core.NewProblem and the incremental delta ops all refuse
// it with a real error), a non-empty non-negative window, positive finite
// energy, non-negative finite weight, and t_e − t_r ≥ 2τ. The task's ID is
// not checked (density is a whole-instance property; Validate checks it).
func (in *Instance) CheckTask(t Task) error {
	j := t.ID
	switch {
	case !finite(t.Pos.X) || !finite(t.Pos.Y):
		return fmt.Errorf("model: task %d has non-finite position (%g, %g)", j, t.Pos.X, t.Pos.Y)
	case !finite(t.Phi):
		return fmt.Errorf("model: task %d has non-finite orientation %g", j, t.Phi)
	case t.End <= t.Release:
		return fmt.Errorf("model: task %d has empty window [%d, %d)", j, t.Release, t.End)
	case t.Release < 0:
		return fmt.Errorf("model: task %d released at negative slot %d", j, t.Release)
	case !finite(t.Energy):
		return fmt.Errorf("model: task %d has non-finite energy %g", j, t.Energy)
	case t.Energy <= 0:
		return fmt.Errorf("model: task %d requires non-positive energy %g", j, t.Energy)
	case !finite(t.Weight):
		return fmt.Errorf("model: task %d has non-finite weight %g", j, t.Weight)
	case t.Weight < 0:
		return fmt.Errorf("model: task %d has negative weight %g", j, t.Weight)
	case in.Params.Tau > 0 && t.Duration() < 2*in.Params.Tau:
		return fmt.Errorf("model: task %d duration %d slots violates t_e−t_r ≥ 2τ (τ=%d)",
			j, t.Duration(), in.Params.Tau)
	}
	return nil
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ChargeableTasks returns T_i for every charger: the IDs of tasks the
// charger can cover under some orientation, ascending.
func (in *Instance) ChargeableTasks() [][]int {
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
