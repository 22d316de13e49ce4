// Package instio serializes HASTE problem instances to and from JSON, so
// deployments can be described in files, shared, and replayed:
//
//	haste gen  --chargers 20 --tasks 60 --out field.json
//	haste eval --instance field.json
//
// The schema is versioned and explicit rather than a direct dump of the
// model types: the utility function is named (the model type is an
// interface), angles are stored in degrees for human editing, and loading
// always validates.
package instio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"haste/internal/geom"
	"haste/internal/model"
)

// SchemaVersion identifies the file format.
const SchemaVersion = 1

// File is the on-disk representation of a problem instance.
type File struct {
	Version int         `json:"version"`
	Comment string      `json:"comment,omitempty"`
	Params  FileParams  `json:"params"`
	Charger []FilePoint `json:"chargers"`
	Tasks   []FileTask  `json:"tasks"`
}

// FileParams mirrors model.Params with angles in degrees.
type FileParams struct {
	Alpha                 float64 `json:"alpha"`
	Beta                  float64 `json:"beta"`
	Radius                float64 `json:"radius_m"`
	ChargeAngleDeg        float64 `json:"charge_angle_deg"`
	ReceiveAngleDeg       float64 `json:"receive_angle_deg"`
	SlotSeconds           float64 `json:"slot_seconds"`
	Rho                   float64 `json:"switching_delay_rho"`
	Tau                   int     `json:"rescheduling_delay_tau"`
	AnisotropicGain       bool    `json:"anisotropic_gain,omitempty"`
	ProportionalSwitching bool    `json:"proportional_switching,omitempty"`
	Utility               string  `json:"utility,omitempty"` // "", "linear-bounded", "log", "exp-saturating"
}

// FilePoint is a 2D position.
type FilePoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// FileTask is a charging task with its device orientation in degrees.
type FileTask struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	PhiDeg  float64 `json:"phi_deg"`
	Release int     `json:"release_slot"`
	End     int     `json:"end_slot"`
	Energy  float64 `json:"energy_j"`
	Weight  float64 `json:"weight"`
}

// deg converts to degrees rounded at the ninth decimal, so that
// radian-exact angles like π/3 serialize as the 60 a human wrote.
func deg(rad float64) float64 {
	return math.Round(geom.ToDeg(rad)*1e9) / 1e9
}

// utilityByName maps schema names to model utilities.
func utilityByName(name string) (model.Utility, error) {
	switch name {
	case "", "linear-bounded":
		return model.LinearBounded{}, nil
	case "log":
		return model.LogUtility{}, nil
	case "exp-saturating":
		return model.ExpSaturating{}, nil
	}
	return nil, fmt.Errorf("instio: unknown utility %q", name)
}

// FromInstance converts a model instance into the file schema.
func FromInstance(in *model.Instance, comment string) File {
	f := File{
		Version: SchemaVersion,
		Comment: comment,
		Params: FileParams{
			Alpha:                 in.Params.Alpha,
			Beta:                  in.Params.Beta,
			Radius:                in.Params.Radius,
			ChargeAngleDeg:        deg(in.Params.ChargeAngle),
			ReceiveAngleDeg:       deg(in.Params.ReceiveAngle),
			SlotSeconds:           in.Params.SlotSeconds,
			Rho:                   in.Params.Rho,
			Tau:                   in.Params.Tau,
			AnisotropicGain:       in.Params.AnisotropicGain,
			ProportionalSwitching: in.Params.ProportionalSwitching,
			Utility:               in.U().Name(),
		},
	}
	for _, c := range in.Chargers {
		f.Charger = append(f.Charger, FilePoint{c.Pos.X, c.Pos.Y})
	}
	for _, t := range in.Tasks {
		f.Tasks = append(f.Tasks, FileTask{
			X: t.Pos.X, Y: t.Pos.Y, PhiDeg: deg(t.Phi),
			Release: t.Release, End: t.End, Energy: t.Energy, Weight: t.Weight,
		})
	}
	return f
}

// ToInstance converts the file schema back into a validated instance.
// Charger and task IDs are assigned densely in file order.
func (f File) ToInstance() (*model.Instance, error) {
	if f.Version != SchemaVersion {
		return nil, fmt.Errorf("instio: unsupported schema version %d (want %d)", f.Version, SchemaVersion)
	}
	u, err := utilityByName(f.Params.Utility)
	if err != nil {
		return nil, err
	}
	in := &model.Instance{
		Params: model.Params{
			Alpha:                 f.Params.Alpha,
			Beta:                  f.Params.Beta,
			Radius:                f.Params.Radius,
			ChargeAngle:           geom.Deg(f.Params.ChargeAngleDeg),
			ReceiveAngle:          geom.Deg(f.Params.ReceiveAngleDeg),
			SlotSeconds:           f.Params.SlotSeconds,
			Rho:                   f.Params.Rho,
			Tau:                   f.Params.Tau,
			AnisotropicGain:       f.Params.AnisotropicGain,
			ProportionalSwitching: f.Params.ProportionalSwitching,
		},
		Utility: u,
	}
	for i, c := range f.Charger {
		in.Chargers = append(in.Chargers, model.Charger{ID: i, Pos: geom.Point{X: c.X, Y: c.Y}})
	}
	for j, t := range f.Tasks {
		in.Tasks = append(in.Tasks, TaskFromFile(t, j))
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("instio: invalid instance: %w", err)
	}
	return in, nil
}

// nz normalizes negative zero to positive zero. encoding/json spells
// -0.0 as "-0", so without this an instance differing from another only
// in the sign of a zero coordinate would canonicalize to different bytes
// — and different content addresses — despite compiling to an identical
// Problem (every distance, angle, and power computation treats the two
// zeros alike).
func nz(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// TaskFromFile converts one schema task into a model task with the given
// ID, using exactly the conversion ToInstance applies — the session API
// decodes streamed task mutations through this so an incrementally built
// instance matches a from-scratch Load of the same file bit for bit.
func TaskFromFile(t FileTask, id int) model.Task {
	return model.Task{
		ID: id, Pos: geom.Point{X: t.X, Y: t.Y}, Phi: geom.Deg(t.PhiDeg),
		Release: t.Release, End: t.End, Energy: t.Energy, Weight: t.Weight,
	}
}

// Canonical returns the canonical wire encoding of the file: schema
// version pinned, comment stripped, nil slices normalized to empty,
// negative zeros normalized, and compact JSON in the fixed field order of
// the schema structs. Two files that decode to the same instance content
// (regardless of whitespace, float spelling like 60 vs 6e1 vs -0, or
// comments) canonicalize to the same bytes, which is what makes the
// encoding usable as a content address.
func (f File) Canonical() ([]byte, error) {
	f.Version = SchemaVersion
	f.Comment = ""
	p := &f.Params
	p.Alpha, p.Beta, p.Radius = nz(p.Alpha), nz(p.Beta), nz(p.Radius)
	p.ChargeAngleDeg, p.ReceiveAngleDeg = nz(p.ChargeAngleDeg), nz(p.ReceiveAngleDeg)
	p.SlotSeconds, p.Rho = nz(p.SlotSeconds), nz(p.Rho)
	if f.Charger == nil {
		f.Charger = []FilePoint{}
	} else {
		f.Charger = append([]FilePoint(nil), f.Charger...)
		for i := range f.Charger {
			c := &f.Charger[i]
			c.X, c.Y = nz(c.X), nz(c.Y)
		}
	}
	if f.Tasks == nil {
		f.Tasks = []FileTask{}
	} else {
		f.Tasks = append([]FileTask(nil), f.Tasks...)
		for i := range f.Tasks {
			t := &f.Tasks[i]
			t.X, t.Y, t.PhiDeg = nz(t.X), nz(t.Y), nz(t.PhiDeg)
			t.Energy, t.Weight = nz(t.Energy), nz(t.Weight)
		}
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("instio: canonicalize: %w", err)
	}
	return raw, nil
}

// Hash returns the content address of the file: "sha256:" followed by the
// hex SHA-256 of Canonical(). Instances with equal canonical encodings —
// and only those — share a hash; the compiled-problem cache of package
// serve keys on it.
func (f File) Hash() (string, error) {
	raw, err := f.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Save writes the instance as indented JSON.
func Save(w io.Writer, in *model.Instance, comment string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(FromInstance(in, comment))
}

// Load reads and validates an instance.
func Load(r io.Reader) (*model.Instance, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("instio: %w", err)
	}
	return f.ToInstance()
}

// SaveFile writes the instance to a path.
func SaveFile(path string, in *model.Instance, comment string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := Save(w, in, comment); err != nil {
		return err
	}
	return w.Close()
}

// LoadFile reads an instance from a path.
func LoadFile(path string) (*model.Instance, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Load(r)
}
