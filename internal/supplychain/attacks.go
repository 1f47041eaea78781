package supplychain

import (
	"fmt"
	"math/rand"

	"obfuscade/internal/brep"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stego"
)

// AttackInfo describes one executable attack from the taxonomy.
type AttackInfo struct {
	ID          string
	Name        string
	Stage       Stage
	Description string
}

// Catalog lists the executable attacks implemented here, keyed by the
// taxonomy's attack IDs.
func Catalog() []AttackInfo {
	return []AttackInfo{
		{"stl-void", "STL void injection", StageSTL,
			"remove triangles to open voids in the printed part"},
		{"stl-scale", "STL dimension scaling", StageSTL,
			"scale the model so printed parts are out of tolerance"},
		{"stl-reorient", "STL reorientation", StageSTL,
			"rotate the model so anisotropy weakens the part"},
		{"gcode-porosity", "G-code porosity injection", StageSlicing,
			"drop extrusion moves to create internal porosity"},
		{"gcode-envelope", "Malicious coordinates", StageSlicing,
			"drive the head beyond the build envelope to damage actuators"},
		{"cad-trojan", "CAD design Trojan", StageCAD,
			"covertly embed a defect feature inside the solid model"},
		{"stl-stego", "STL stego-channel exfiltration", StageSTL,
			"hide stolen data in facet ordering and sub-quantum coordinate offsets of exported STL files"},
		{"firmware-trojan", "Firmware Trojan", StagePrinter,
			"printer firmware silently thins roads below spec"},
	}
}

// StegoExfiltrationAttack hides payload inside the geometry-neutral
// freedom of an exported design file (facet order + coordinate LSBs):
// the printed part is unchanged, so none of the Table 1 geometric
// mitigations fire. Its counter is the stego sanitizer — the registered
// STL-stage mitigation — which destroys both channels without touching
// the printed geometry.
func StegoExfiltrationAttack(m *mesh.Mesh, payload []byte) (*mesh.Mesh, error) {
	return stego.Embed(m, payload, stego.Options{})
}

// VoidAttack removes every n-th triangle of each shell — the Table 1
// "removal of tetrahedrons" tampering. The damaged mesh fails manifold
// validation, which is exactly the mitigation check.
func VoidAttack(m *mesh.Mesh, n int) error {
	if n < 2 {
		return fmt.Errorf("supplychain: void attack step must be >= 2")
	}
	for si := range m.Shells {
		s := &m.Shells[si]
		kept := s.Tris[:0]
		for i, t := range s.Tris {
			if (i+1)%n == 0 {
				continue
			}
			kept = append(kept, t)
		}
		s.Tris = kept
	}
	return nil
}

// ProtrusionAttack adds spurious tetrahedra ("addition of tetrahedrons",
// Table 1 STL row) on top of existing surface triangles: small bumps that
// ruin mating surfaces and balance. Each affected triangle is replaced by
// a tetrahedral cap over its centroid.
func ProtrusionAttack(m *mesh.Mesh, n int, height float64) error {
	if n < 2 {
		return fmt.Errorf("supplychain: protrusion step must be >= 2")
	}
	if height <= 0 {
		return fmt.Errorf("supplychain: protrusion height must be positive")
	}
	for si := range m.Shells {
		s := &m.Shells[si]
		var added []geom.Triangle
		for i := range s.Tris {
			if (i+1)%n != 0 {
				continue
			}
			t := s.Tris[i]
			apex := t.Centroid().Add(t.Normal().Scale(height))
			// Replace the face with three faces through the raised apex.
			added = append(added,
				geom.Triangle{A: t.A, B: t.B, C: apex},
				geom.Triangle{A: t.B, B: t.C, C: apex},
				geom.Triangle{A: t.C, B: t.A, C: apex},
			)
			// Mark the original for removal by degenerating it in place.
			s.Tris[i] = geom.Triangle{A: t.A, B: t.A, C: t.A}
		}
		kept := s.Tris[:0]
		for _, t := range s.Tris {
			if !t.IsDegenerate(1e-12) {
				kept = append(kept, t)
			}
		}
		s.Tris = append(kept, added...)
	}
	return nil
}

// ScaleAttack scales the mesh about the origin by the given factor — the
// Table 1 "dimension & ratio scaling" tampering. Subtle factors (e.g.
// 1.01) evade visual review but break fit and tolerance.
func ScaleAttack(m *mesh.Mesh, factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("supplychain: scale factor must be positive, got %g", factor)
	}
	m.Transform(geom.ScaleUniform(factor))
	return nil
}

// UnitMismatchAttack rescales the mesh as if its units were mislabelled
// (mm read as inches or vice versa) — a classic STL exchange failure the
// paper's §3.1 slicing properties guard against ("STL unit of
// millimeters"). toInches shrinks a mm-designed file by 25.4x; otherwise
// it inflates it. Caught instantly by dimensional metrology.
func UnitMismatchAttack(m *mesh.Mesh, toInches bool) {
	factor := 25.4
	if toInches {
		factor = 1 / 25.4
	}
	m.Transform(geom.ScaleUniform(factor))
}

// ReorientAttack rotates the mesh by angle radians about the X axis and
// re-seats it on the build plate — the "orientation changes" tampering
// that degrades strength through print anisotropy.
func ReorientAttack(m *mesh.Mesh, angle float64) error {
	m.Transform(geom.RotateX(angle))
	b := m.Bounds()
	m.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))
	return nil
}

// PorosityAttack drops every n-th extruding move from a G-code program —
// internal porosity invisible from outside. Detected by the gcode.Compare
// mitigation.
func PorosityAttack(p *gcode.Program, n int) error {
	if n < 2 {
		return fmt.Errorf("supplychain: porosity attack step must be >= 2")
	}
	kept := p.Commands[:0]
	count := 0
	for _, c := range p.Commands {
		if c.Code == "G1" {
			if _, hasE := c.Arg("E"); hasE {
				count++
				if count%n == 0 {
					continue
				}
			}
		}
		kept = append(kept, c)
	}
	p.Commands = kept
	return nil
}

// EnvelopeAttack appends a move far outside the build envelope — the
// actuator-damage attack stopped by the limit-switch mitigation
// (gcode.SimulateCtx violations).
func EnvelopeAttack(p *gcode.Program) {
	p.Commands = append(p.Commands, gcode.Command{
		Code: "G0",
		Args: map[string]float64{"X": 10_000, "Y": 10_000, "F": 99_000},
	})
}

// CADTrojanAttack covertly embeds a surface sphere (with material
// removal) inside the part's first solid prismatic body: the printed part
// gains a hidden cavity that reduces strength — a malicious use of the
// very mechanism ObfusCADe employs defensively. Detected by CT inspection
// (voxel.InternalCavities) at the testing stage.
func CADTrojanAttack(p *brep.Part, rng *rand.Rand) error {
	for _, b := range p.Bodies {
		if b.Kind != brep.Solid {
			continue
		}
		if _, ok := b.Shape.(*brep.Prism); !ok {
			continue
		}
		bounds := b.Shape.Bounds()
		size := bounds.Size()
		r := 0.15 * minComponent(size)
		if r <= 0 {
			continue
		}
		c := bounds.Center()
		if rng != nil {
			c.X += (rng.Float64() - 0.5) * 0.2 * size.X
		}
		return brep.EmbedSphere(p, b.Name, c, r, brep.EmbedOpts{
			MaterialRemoval: true,
			SurfaceBody:     true,
		})
	}
	return fmt.Errorf("supplychain: no suitable solid body for Trojan")
}

func minComponent(v geom.Vec3) float64 {
	m := v.X
	if v.Y < m {
		m = v.Y
	}
	if v.Z < m {
		m = v.Z
	}
	return m
}
