package supplychain

import (
	"fmt"
	"math/rand"

	"obfuscade/internal/brep"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

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
