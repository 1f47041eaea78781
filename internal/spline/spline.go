// Package spline implements the planar spline curves used by the CAD
// kernel's sketch features, most importantly the spline split feature of
// ObfusCADe §3.1.
//
// Curves are piecewise cubic Béziers. Flattening (conversion to a chordal
// polyline) is controlled by the same two parameters SolidWorks exposes in
// its STL export dialog (paper Fig. 5): the maximum chordal Deviation and
// the maximum Angle between adjacent facets. Two bodies that share a spline
// boundary flatten it independently, with different sampling phases; the
// resulting vertex mismatch is exactly the tessellation-induced gap
// mechanism shown in the paper's Fig. 4.
package spline

import (
	"fmt"
	"math"

	"obfuscade/internal/geom"
)

// CubicBezier is a single cubic Bézier span with control points P0..P3.
type CubicBezier struct {
	P0, P1, P2, P3 geom.Vec2
}

// Eval returns the curve point at parameter t in [0, 1].
func (c CubicBezier) Eval(t float64) geom.Vec2 {
	u := 1 - t
	b0 := u * u * u
	b1 := 3 * u * u * t
	b2 := 3 * u * t * t
	b3 := t * t * t
	return c.P0.Scale(b0).Add(c.P1.Scale(b1)).Add(c.P2.Scale(b2)).Add(c.P3.Scale(b3))
}

// Spline is a piecewise-cubic planar curve. Spans join with positional
// continuity; Catmull-Rom construction additionally gives C1 continuity.
type Spline struct {
	Spans []CubicBezier
}

// Interpolate builds a C1 Catmull-Rom spline through the given points
// (at least two). This mirrors how a designer sketches a spline through
// picked points in a CAD sketcher.
func Interpolate(pts []geom.Vec2) (*Spline, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("spline: need at least 2 points, got %d", len(pts))
	}
	n := len(pts)
	spans := make([]CubicBezier, 0, n-1)
	for i := 0; i < n-1; i++ {
		p1 := pts[i]
		p2 := pts[i+1]
		var p0, p3 geom.Vec2
		if i == 0 {
			p0 = p1.Add(p1.Sub(p2)) // reflect for natural end tangent
		} else {
			p0 = pts[i-1]
		}
		if i+2 >= n {
			p3 = p2.Add(p2.Sub(p1))
		} else {
			p3 = pts[i+2]
		}
		// Catmull-Rom to Bézier control point conversion (tension 0.5).
		c1 := p1.Add(p2.Sub(p0).Scale(1.0 / 6.0))
		c2 := p2.Sub(p3.Sub(p1).Scale(1.0 / 6.0))
		spans = append(spans, CubicBezier{p1, c1, c2, p2})
	}
	return &Spline{Spans: spans}, nil
}

// Eval returns the curve point at global parameter t in [0, 1], where each
// span occupies an equal parameter interval.
func (s *Spline) Eval(t float64) geom.Vec2 {
	span, local := s.locate(t)
	return s.Spans[span].Eval(local)
}

func (s *Spline) locate(t float64) (span int, local float64) {
	t = geom.Clamp(t, 0, 1)
	n := len(s.Spans)
	scaled := t * float64(n)
	span = int(scaled)
	if span >= n {
		span = n - 1
	}
	return span, scaled - float64(span)
}

// Start returns the first curve point.
func (s *Spline) Start() geom.Vec2 { return s.Spans[0].P0 }

// End returns the last curve point.
func (s *Spline) End() geom.Vec2 { return s.Spans[len(s.Spans)-1].P3 }

// ArcLength returns the curve length computed by dense chordal sampling.
func (s *Spline) ArcLength() float64 {
	const samplesPerSpan = 256
	var l float64
	for _, c := range s.Spans {
		prev := c.Eval(0)
		for i := 1; i <= samplesPerSpan; i++ {
			p := c.Eval(float64(i) / samplesPerSpan)
			l += prev.Dist(p)
			prev = p
		}
	}
	return l
}

// FlattenOpts controls chordal flattening, mirroring the STL export
// parameters of paper Fig. 5.
type FlattenOpts struct {
	// Deviation is the maximum allowed distance between the curve and its
	// chordal approximation, in model units (mm).
	Deviation float64
	// Angle is the maximum allowed angle between adjacent chords, radians.
	Angle float64
	// Phase shifts the interior sample parameters by Phase/N of a
	// subdivision interval, in [0, 1). Two bodies sharing the curve
	// tessellate with different phases, producing the vertex mismatch of
	// paper Fig. 4. Endpoints are always sampled exactly.
	Phase float64
	// MaxSegments caps the subdivision count (safety valve). Zero means
	// a default of 4096.
	MaxSegments int
}

// Validate reports whether the options are usable.
func (o FlattenOpts) Validate() error {
	if o.Deviation <= 0 {
		return fmt.Errorf("spline: Deviation must be positive, got %g", o.Deviation)
	}
	if o.Angle <= 0 {
		return fmt.Errorf("spline: Angle must be positive, got %g", o.Angle)
	}
	if o.Phase < 0 || o.Phase >= 1 {
		return fmt.Errorf("spline: Phase must be in [0,1), got %g", o.Phase)
	}
	return nil
}

// Flatten converts the spline to a polyline satisfying the chordal
// tolerance. The returned slice includes both endpoints.
func (s *Spline) Flatten(opts FlattenOpts) ([]geom.Vec2, error) {
	params, err := s.FlattenParams(opts)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Vec2, len(params))
	for i, t := range params {
		pts[i] = s.Eval(t)
	}
	return pts, nil
}

// FlattenParams returns the global parameter values of the flattening
// vertices. Uniform-in-parameter sampling with an increasing segment count
// is used so that the Phase option produces a deterministic, controlled
// mismatch between two flattenings of the same curve.
func (s *Spline) FlattenParams(opts FlattenOpts) ([]float64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	maxSeg := opts.MaxSegments
	if maxSeg <= 0 {
		maxSeg = 4096
	}
	n := len(s.Spans) // start with one chord per span
	for ; n <= maxSeg; n *= 2 {
		params := s.sampleParams(n, opts.Phase)
		if s.chordsWithinTol(params, opts.Deviation, opts.Angle) {
			return params, nil
		}
	}
	return s.sampleParams(maxSeg, opts.Phase),
		fmt.Errorf("spline: tolerance not reached within %d segments", maxSeg)
}

func (s *Spline) sampleParams(n int, phase float64) []float64 {
	params := make([]float64, 0, n+1)
	params = append(params, 0)
	for i := 1; i < n; i++ {
		params = append(params, (float64(i)+phase)/float64(n))
	}
	params = append(params, 1)
	return params
}

func (s *Spline) chordsWithinTol(params []float64, dev, angle float64) bool {
	// Chordal deviation: check midpoints of each parameter interval.
	for i := 0; i+1 < len(params); i++ {
		a := s.Eval(params[i])
		b := s.Eval(params[i+1])
		for _, f := range [3]float64{0.25, 0.5, 0.75} {
			m := s.Eval(params[i] + f*(params[i+1]-params[i]))
			if (geom.Segment2{A: a, B: b}).Dist(m) > dev {
				return false
			}
		}
	}
	// Facet angle, evaluated within each interval (chord versus curve) so
	// the criterion measures tessellation error rather than penalising
	// genuine curvature concentrated at interval boundaries.
	for i := 0; i+1 < len(params); i++ {
		a := s.Eval(params[i])
		m := s.Eval((params[i] + params[i+1]) / 2)
		b := s.Eval(params[i+1])
		u := m.Sub(a)
		v := b.Sub(m)
		if u.Len() == 0 || v.Len() == 0 {
			continue
		}
		cosang := geom.Clamp(u.Dot(v)/(u.Len()*v.Len()), -1, 1)
		if math.Acos(cosang) > angle {
			return false
		}
	}
	return true
}

// MaxMismatch measures the largest lateral distance between two polylines
// that approximate the same curve — the magnitude of the tessellation gap
// along a split (paper Fig. 4). It samples polyline a densely and measures
// the distance to polyline b.
func MaxMismatch(a, b []geom.Vec2) float64 {
	var worst float64
	for i := 0; i+1 < len(a); i++ {
		for _, f := range [3]float64{0, 0.33, 0.67} {
			p := a[i].Lerp(a[i+1], f)
			d := distToPolyline(p, b)
			if d > worst {
				worst = d
			}
		}
	}
	if len(a) > 0 {
		if d := distToPolyline(a[len(a)-1], b); d > worst {
			worst = d
		}
	}
	return worst
}

func distToPolyline(p geom.Vec2, line []geom.Vec2) float64 {
	best := math.Inf(1)
	for i := 0; i+1 < len(line); i++ {
		d := (geom.Segment2{A: line[i], B: line[i+1]}).Dist(p)
		if d < best {
			best = d
		}
	}
	return best
}
