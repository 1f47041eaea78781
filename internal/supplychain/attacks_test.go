package supplychain

import (
	"fmt"
	"math"

	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/stego"
)

// Everything in this file is test-only: no binary runs it. This
// package's tests and its Example execute each attack scenario against
// the Table 1 mitigation that catches it; the attacks the experiments
// run (void, scale, porosity, CAD Trojan) stay in attacks.go.

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

// EnvelopeAttack appends a move far outside the build envelope — the
// actuator-damage attack stopped by the limit-switch mitigation
// (gcode.SimulateCtx violations).
func EnvelopeAttack(p *gcode.Program) {
	p.Commands = append(p.Commands, gcode.Command{
		Code: "G0",
		Args: map[string]float64{"X": 10_000, "Y": 10_000, "F": 99_000},
	})
}

// Stages lists the chain in order.
func Stages() []Stage {
	return []Stage{StageCAD, StageSTL, StageSlicing, StagePrinter, StageTesting}
}

// LeafCount returns the number of leaf categories.
func (n *TaxonomyNode) LeafCount() int {
	count := 0
	n.Walk(func(_ int, node *TaxonomyNode) {
		if len(node.Children) == 0 {
			count++
		}
	})
	return count
}

// Used returns how many tickets have been burned.
func (v *TicketValidator) Used() int { return len(v.burned) }

// RemeshAttack is a counterfeiter countermeasure against ObfusCADe's
// spline split: cluster-weld all vertices on a grid of size cluster so
// the two split bodies' mismatched boundaries snap together, hoping to
// heal the massless separation. Degenerate triangles produced by the
// clustering are dropped.
//
// The repository's analysis (see TestRemeshAttackAnalysis and
// EXPERIMENTS.md) shows the trade-off this attacker faces: clustering
// coarse enough to fuse the boundaries (>= the tessellation mismatch)
// deforms the whole surface by up to cluster/2 — an order of magnitude
// more than the split gap it removes — and leaves non-manifold junk at
// the seam, so the "cleaned" file fails both metrology and geometry
// review.
func RemeshAttack(m *mesh.Mesh, cluster float64) error {
	if cluster <= 0 {
		return fmt.Errorf("supplychain: cluster size must be positive")
	}
	snap := func(v geom.Vec3) geom.Vec3 {
		return geom.V3(
			math.Round(v.X/cluster)*cluster,
			math.Round(v.Y/cluster)*cluster,
			math.Round(v.Z/cluster)*cluster,
		)
	}
	for si := range m.Shells {
		s := &m.Shells[si]
		kept := s.Tris[:0]
		for _, t := range s.Tris {
			nt := geom.Triangle{A: snap(t.A), B: snap(t.B), C: snap(t.C)}
			if nt.IsDegenerate(1e-12) {
				continue
			}
			kept = append(kept, nt)
		}
		s.Tris = kept
	}
	return nil
}

// MaxSurfaceDeviation measures the largest vertex displacement between a
// mesh and its remeshed copy — the dimensional damage a clustering attack
// inflicts. The meshes must have come from the same source (triangles are
// compared positionally).
func MaxSurfaceDeviation(original, remeshed *mesh.Mesh) float64 {
	var worst float64
	// Compare vertex sets via nearest-snap: for clustering remeshes the
	// deviation per vertex is bounded by the snap distance, measured
	// here empirically over original vertices.
	var remeshVerts []geom.Vec3
	for si := range remeshed.Shells {
		idx := mesh.IndexShell(&remeshed.Shells[si], 1e-9)
		remeshVerts = append(remeshVerts, idx.Verts...)
	}
	if len(remeshVerts) == 0 {
		return math.Inf(1)
	}
	for si := range original.Shells {
		idx := mesh.IndexShell(&original.Shells[si], 1e-9)
		for _, v := range idx.Verts {
			best := math.Inf(1)
			for _, r := range remeshVerts {
				if d := v.Dist(r); d < best {
					best = d
				}
			}
			if best > worst {
				worst = best
			}
		}
	}
	return worst
}
