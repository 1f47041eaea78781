package brep

import (
	"fmt"
	"math"

	"obfuscade/internal/geom"
)

// Revolve is a solid of revolution: the radius profile R(x) swept about
// the x axis over [X0, X1], with flat disc caps at the ends. It models
// the axisymmetric engineering parts (shafts, nozzles, bushings) the
// paper's introduction motivates.
type Revolve struct {
	// X0, X1 bound the axis span.
	X0, X1 float64
	// Radius is the profile R(x); it must be strictly positive over the
	// open interval and may taper to >0 at the ends (capped flat).
	Radius func(x float64) float64
	// Tag names the profile for serialisation.
	Tag string
	// Axis is the revolution axis position in y, z (the axis runs along
	// x at this offset).
	Axis geom.Vec2
	// Breaks lists interior x stations where the profile may jump
	// (steps produce annular faces there). Must be strictly inside
	// (X0, X1) and sorted ascending.
	Breaks []float64
}

// Bounds implements Shape.
func (r *Revolve) Bounds() geom.AABB {
	maxR := r.maxRadius()
	return geom.AABB{
		Min: geom.V3(r.X0, r.Axis.X-maxR, r.Axis.Y-maxR),
		Max: geom.V3(r.X1, r.Axis.X+maxR, r.Axis.Y+maxR),
	}
}

func (r *Revolve) maxRadius() float64 {
	maxR := 0.0
	const n = 256
	for i := 0; i <= n; i++ {
		x := r.X0 + float64(i)/n*(r.X1-r.X0)
		if v := r.Radius(x); v > maxR {
			maxR = v
		}
	}
	return maxR
}

// Volume implements Shape (solid of revolution by the disc method).
func (r *Revolve) Volume() float64 {
	const n = 2048
	var v float64
	dx := (r.X1 - r.X0) / n
	for i := 0; i < n; i++ {
		x := r.X0 + (float64(i)+0.5)*dx
		rad := r.Radius(x)
		v += math.Pi * rad * rad * dx
	}
	return v
}

func (r *Revolve) isShape() {}

// Validate reports whether the shape is well-formed.
func (r *Revolve) Validate() error {
	if r.X1 <= r.X0 {
		return fmt.Errorf("brep: revolve has empty span [%g, %g]", r.X0, r.X1)
	}
	if r.Radius == nil {
		return fmt.Errorf("brep: revolve needs a radius profile")
	}
	const n = 64
	for i := 0; i <= n; i++ {
		x := r.X0 + float64(i)/n*(r.X1-r.X0)
		if r.Radius(x) <= 0 {
			return fmt.Errorf("brep: revolve radius must stay positive (R(%g) = %g)",
				x, r.Radius(x))
		}
	}
	prev := r.X0
	for _, b := range r.Breaks {
		if b <= prev || b >= r.X1 {
			return fmt.Errorf("brep: break %g outside (%g, %g) or unsorted", b, prev, r.X1)
		}
		prev = b
	}
	return nil
}

// Pieces returns the smooth x intervals delimited by the breaks.
func (r *Revolve) Pieces() [][2]float64 {
	edges := append([]float64{r.X0}, r.Breaks...)
	edges = append(edges, r.X1)
	out := make([][2]float64, 0, len(edges)-1)
	for i := 0; i+1 < len(edges); i++ {
		out = append(out, [2]float64{edges[i], edges[i+1]})
	}
	return out
}

// NewShaft creates a stepped-shaft part: a cylinder of radius r1 over
// [0, l1], transitioning to radius r2 until length l — a typical
// axisymmetric machine element for the embedded-sphere feature.
func NewShaft(name string, l1, r1, l, r2 float64) (*Part, error) {
	if l1 <= 0 || l <= l1 || r1 <= 0 || r2 <= 0 {
		return nil, fmt.Errorf("brep: invalid shaft dimensions l1=%g l=%g r1=%g r2=%g",
			l1, l, r1, r2)
	}
	rev := &Revolve{
		X0: 0, X1: l, Tag: "stepped-shaft",
		Radius: func(x float64) float64 {
			if x <= l1 {
				return r1
			}
			return r2
		},
		Axis:   geom.V2(0, 0),
		Breaks: []float64{l1},
	}
	if err := rev.Validate(); err != nil {
		return nil, err
	}
	p := &Part{Name: name, Bodies: []*Body{{
		Name:  "shaft",
		Kind:  Solid,
		Shape: rev,
	}}}
	p.record("stepped-shaft l1=%g r1=%g l=%g r2=%g", l1, r1, l, r2)
	return p, nil
}
