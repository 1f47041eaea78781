// Package brep is a small multi-body CAD kernel sufficient to express the
// designs in the ObfusCADe paper: prismatic solids with curved planar
// profiles, embedded spheres (solid or surface bodies, with or without
// material removal), and spline split features that divide one body into
// two with zero separation.
//
// The kernel deliberately mirrors the SolidWorks semantics the paper
// relies on:
//
//   - A part may contain several bodies. Bodies may be solids or surface
//     (zero-thickness) bodies.
//   - A split feature produces two solid bodies whose shared boundary is
//     the *same* curve object, but each body tessellates it independently
//     when exported (see package tessellate) — the root cause of the
//     Fig. 4 gaps.
//   - Material removal records a cavity on the host body; re-embedding a
//     body into the cavity does not merge it with the host.
package brep

import (
	"fmt"

	"obfuscade/internal/geom"
	"obfuscade/internal/spline"
)

// Kind distinguishes solid bodies from zero-thickness surface bodies.
type Kind int

const (
	// Solid bodies enclose material.
	Solid Kind = iota
	// Surface bodies are zero-thickness geometry (§3.2's "surface
	// sphere"). They export to STL identically to solid boundaries but
	// bound no volume.
	Surface
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Surface {
		return "surface"
	}
	return "solid"
}

// Shape is the geometric support of a body.
type Shape interface {
	// Bounds returns the shape's bounding box.
	Bounds() geom.AABB
	// Volume returns the enclosed volume (0 for surface use).
	Volume() float64
	// isShape only seals Shape to this package's types; encode.go names
	// each kind.
	isShape()
}

// Prism is an extruded planar region. The profile is an x-monotone region
// in the XY plane bounded below by Bottom and above by Top (both polylines
// y(x) running left to right over the same x span), extruded from Z0 to Z1.
type Prism struct {
	Top, Bottom Boundary
	Z0, Z1      float64
}

// Bounds implements Shape.
func (p *Prism) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, q := range [4]geom.Vec2{p.Top.Start(), p.Top.End(), p.Bottom.Start(), p.Bottom.End()} {
		b.Extend(geom.V3(q.X, q.Y, p.Z0))
		b.Extend(geom.V3(q.X, q.Y, p.Z1))
	}
	lo, hi := p.Top.YRange()
	b.Extend(geom.V3(p.Top.Start().X, lo, p.Z0))
	b.Extend(geom.V3(p.Top.Start().X, hi, p.Z1))
	lo, hi = p.Bottom.YRange()
	b.Extend(geom.V3(p.Bottom.Start().X, lo, p.Z0))
	b.Extend(geom.V3(p.Bottom.Start().X, hi, p.Z1))
	return b
}

// Volume implements Shape. It evaluates the profile area with a reference
// fine flattening.
func (p *Prism) Volume() float64 {
	poly, err := p.Profile(refOpts, 0)
	if err != nil {
		return 0
	}
	return poly.Area() * (p.Z1 - p.Z0)
}

func (p *Prism) isShape() {}

// refOpts is the reference flattening used for mass properties.
var refOpts = spline.FlattenOpts{Deviation: 0.005, Angle: 0.05}

// Profile returns the closed CCW profile polygon of the prism flattened
// with the given options; phase offsets the sampling of phase-sensitive
// boundaries (the split spline).
func (p *Prism) Profile(opts spline.FlattenOpts, phase float64) (geom.Polygon, error) {
	opts.Phase = phase
	bot, err := p.Bottom.Flatten(opts)
	if err != nil {
		return nil, fmt.Errorf("brep: flatten bottom: %w", err)
	}
	opts.Phase = phase
	top, err := p.Top.Flatten(opts)
	if err != nil {
		return nil, fmt.Errorf("brep: flatten top: %w", err)
	}
	if len(bot) < 2 || len(top) < 2 {
		return nil, fmt.Errorf("brep: degenerate prism boundaries")
	}
	// CCW loop: bottom left->right, right cap, top right->left, left cap.
	poly := make(geom.Polygon, 0, len(bot)+len(top))
	poly = append(poly, bot...)
	for i := len(top) - 1; i >= 0; i-- {
		poly = append(poly, top[i])
	}
	poly = poly.Simplify(1e-9)
	if len(poly) < 3 {
		return nil, fmt.Errorf("brep: degenerate prism profile")
	}
	if !poly.IsCCW() {
		poly = poly.Reversed()
	}
	return poly, nil
}

// Sphere is a spherical shape, used for embedded features and cavities.
type Sphere struct {
	Center geom.Vec3
	R      float64
}

// Bounds implements Shape.
func (s *Sphere) Bounds() geom.AABB {
	d := geom.V3(s.R, s.R, s.R)
	return geom.AABB{Min: s.Center.Sub(d), Max: s.Center.Add(d)}
}

// Volume implements Shape.
func (s *Sphere) Volume() float64 { return 4.0 / 3.0 * 3.141592653589793 * s.R * s.R * s.R }

func (s *Sphere) isShape() {}

// Body is one body of a multi-body part.
type Body struct {
	// Name identifies the body within its part.
	Name string
	// Kind is Solid or Surface.
	Kind Kind
	// Shape is the body geometry.
	Shape Shape
	// Cavities lists shapes subtracted from the body (material removal).
	Cavities []Shape
	// Phase is the tessellation sampling phase assigned to the body.
	// Bodies created by a split feature get distinct phases, which is
	// what makes their shared boundary tessellate differently.
	Phase float64
}

// Volume returns the net material volume of the body.
func (b *Body) Volume() float64 {
	if b.Kind == Surface {
		return 0
	}
	v := b.Shape.Volume()
	for _, c := range b.Cavities {
		v -= c.Volume()
	}
	return v
}

// Part is a named multi-body CAD part with a feature history.
type Part struct {
	Name string
	// Bodies in creation order.
	Bodies []*Body
	// History records applied feature operations, oldest first.
	History []string
}

// Body returns the body with the given name, or nil.
func (p *Part) Body(name string) *Body {
	for _, b := range p.Bodies {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// RemoveBody deletes the named body; it reports whether it was present.
func (p *Part) RemoveBody(name string) bool {
	for i, b := range p.Bodies {
		if b.Name == name {
			p.Bodies = append(p.Bodies[:i], p.Bodies[i+1:]...)
			return true
		}
	}
	return false
}

// Bounds returns the bounding box over all bodies.
func (p *Part) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, body := range p.Bodies {
		b = b.Union(body.Shape.Bounds())
	}
	return b
}

// Volume returns the total material volume over all solid bodies.
func (p *Part) Volume() float64 {
	var v float64
	for _, b := range p.Bodies {
		v += b.Volume()
	}
	return v
}

// record appends a feature description to the part history.
func (p *Part) record(format string, args ...any) {
	p.History = append(p.History, fmt.Sprintf(format, args...))
}
