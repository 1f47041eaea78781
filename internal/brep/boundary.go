package brep

import (
	"fmt"
	"math"

	"obfuscade/internal/geom"
	"obfuscade/internal/spline"
)

// Boundary is an x-monotone planar curve y(x), running left to right, that
// bounds a prism profile. Flatten converts it to a polyline whose chordal
// error satisfies the given options. Implementations that depend on the
// sampling phase (SplineBoundary) realise the paper's per-body tessellation
// mismatch.
type Boundary interface {
	// Flatten returns the polyline approximation, including both
	// endpoints, ordered by increasing x.
	Flatten(opts spline.FlattenOpts) ([]geom.Vec2, error)
	// Start returns the left endpoint.
	Start() geom.Vec2
	// End returns the right endpoint.
	End() geom.Vec2
	// YRange returns conservative lower/upper bounds of y along the curve.
	YRange() (lo, hi float64)
	// isBoundary only seals Boundary to this package's types; encode.go
	// names each kind.
	isBoundary()
}

// LineBoundary is a straight segment from (X0, Y0) to (X1, Y1).
type LineBoundary struct {
	X0, Y0, X1, Y1 float64
}

// Flatten implements Boundary.
func (l *LineBoundary) Flatten(spline.FlattenOpts) ([]geom.Vec2, error) {
	return []geom.Vec2{geom.V2(l.X0, l.Y0), geom.V2(l.X1, l.Y1)}, nil
}

// Start implements Boundary.
func (l *LineBoundary) Start() geom.Vec2 { return geom.V2(l.X0, l.Y0) }

// End implements Boundary.
func (l *LineBoundary) End() geom.Vec2 { return geom.V2(l.X1, l.Y1) }

// YRange implements Boundary.
func (l *LineBoundary) YRange() (float64, float64) {
	return math.Min(l.Y0, l.Y1), math.Max(l.Y0, l.Y1)
}

func (l *LineBoundary) isBoundary() {}

// FuncBoundary is an analytic curve y = F(x) over [X0, X1], flattened
// adaptively. It is used for the dogbone fillet arcs, whose facet count
// responds to the STL resolution setting (Fig. 5).
type FuncBoundary struct {
	X0, X1 float64
	F      func(x float64) float64
	// Tag distinguishes serialised instances.
	Tag string
}

// Flatten implements Boundary. Sampling is uniform in x with a segment
// count doubled until the chordal deviation and facet angle tolerances are
// met; interior stations are shifted by the phase fraction.
func (f *FuncBoundary) Flatten(opts spline.FlattenOpts) ([]geom.Vec2, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if f.X1 <= f.X0 {
		return nil, fmt.Errorf("brep: FuncBoundary has empty x span [%g,%g]", f.X0, f.X1)
	}
	const maxSeg = 1 << 14
	for n := 1; n <= maxSeg; n *= 2 {
		pts := f.sample(n, opts.Phase)
		if f.withinTol(pts, opts.Deviation, opts.Angle) {
			return pts, nil
		}
	}
	return f.sample(maxSeg, opts.Phase), nil
}

func (f *FuncBoundary) sample(n int, phase float64) []geom.Vec2 {
	pts := make([]geom.Vec2, 0, n+1)
	at := func(x float64) geom.Vec2 { return geom.V2(x, f.F(x)) }
	pts = append(pts, at(f.X0))
	for i := 1; i < n; i++ {
		x := f.X0 + (float64(i)+phase)/float64(n)*(f.X1-f.X0)
		pts = append(pts, at(x))
	}
	pts = append(pts, at(f.X1))
	return pts
}

func (f *FuncBoundary) withinTol(pts []geom.Vec2, dev, angle float64) bool {
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		for _, frac := range [3]float64{0.25, 0.5, 0.75} {
			x := a.X + frac*(b.X-a.X)
			p := geom.V2(x, f.F(x))
			if (geom.Segment2{A: a, B: b}).Dist(p) > dev {
				return false
			}
		}
	}
	// The angular criterion is evaluated within each interval (chord
	// versus curve), so genuine tangent discontinuities at feature edges
	// (e.g. the grip-to-fillet kink of a dogbone) do not force endless
	// subdivision — they are real edges, not tessellation error.
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		xm := (a.X + b.X) / 2
		m := geom.V2(xm, f.F(xm))
		u := m.Sub(a)
		v := b.Sub(m)
		if u.Len() == 0 || v.Len() == 0 {
			continue
		}
		c := geom.Clamp(u.Dot(v)/(u.Len()*v.Len()), -1, 1)
		if math.Acos(c) > angle {
			return false
		}
	}
	return true
}

// Start implements Boundary.
func (f *FuncBoundary) Start() geom.Vec2 { return geom.V2(f.X0, f.F(f.X0)) }

// End implements Boundary.
func (f *FuncBoundary) End() geom.Vec2 { return geom.V2(f.X1, f.F(f.X1)) }

// YRange implements Boundary (sampled conservatively).
func (f *FuncBoundary) YRange() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	const n = 256
	for i := 0; i <= n; i++ {
		y := f.F(f.X0 + float64(i)/n*(f.X1-f.X0))
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	return lo, hi
}

func (f *FuncBoundary) isBoundary() {}

// SplineBoundary wraps a sketch spline as a prism boundary. This is the
// boundary created by the spline split feature; its flattening honours the
// phase option, so two bodies sharing the same SplineBoundary produce
// mismatched polylines (paper Fig. 4).
type SplineBoundary struct {
	S *spline.Spline
}

// Flatten implements Boundary.
func (s *SplineBoundary) Flatten(opts spline.FlattenOpts) ([]geom.Vec2, error) {
	return s.S.Flatten(opts)
}

// Start implements Boundary.
func (s *SplineBoundary) Start() geom.Vec2 { return s.S.Start() }

// End implements Boundary.
func (s *SplineBoundary) End() geom.Vec2 { return s.S.End() }

// YRange implements Boundary (sampled conservatively).
func (s *SplineBoundary) YRange() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	const n = 256
	for i := 0; i <= n; i++ {
		y := s.S.Eval(float64(i) / n).Y
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	return lo, hi
}

func (s *SplineBoundary) isBoundary() {}

// CompositeBoundary concatenates boundaries end to end (left to right).
type CompositeBoundary struct {
	Parts []Boundary
}

// Flatten implements Boundary.
func (c *CompositeBoundary) Flatten(opts spline.FlattenOpts) ([]geom.Vec2, error) {
	if len(c.Parts) == 0 {
		return nil, fmt.Errorf("brep: empty composite boundary")
	}
	var out []geom.Vec2
	for i, p := range c.Parts {
		pts, err := p.Flatten(opts)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			if len(out) > 0 && len(pts) > 0 && out[len(out)-1].Eq(pts[0], 1e-9) {
				pts = pts[1:] // drop duplicated junction vertex
			}
		}
		out = append(out, pts...)
	}
	return out, nil
}

// Start implements Boundary.
func (c *CompositeBoundary) Start() geom.Vec2 { return c.Parts[0].Start() }

// End implements Boundary.
func (c *CompositeBoundary) End() geom.Vec2 { return c.Parts[len(c.Parts)-1].End() }

// YRange implements Boundary.
func (c *CompositeBoundary) YRange() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range c.Parts {
		l, h := p.YRange()
		lo = math.Min(lo, l)
		hi = math.Max(hi, h)
	}
	return lo, hi
}

func (c *CompositeBoundary) isBoundary() {}
