package spline

import (
	"math"
	"testing"
	"testing/quick"

	"obfuscade/internal/geom"
)

// Deriv returns the first derivative (tangent, unnormalised) at t.
func (c CubicBezier) Deriv(t float64) geom.Vec2 {
	u := 1 - t
	d0 := c.P1.Sub(c.P0).Scale(3 * u * u)
	d1 := c.P2.Sub(c.P1).Scale(6 * u * t)
	d2 := c.P3.Sub(c.P2).Scale(3 * t * t)
	return d0.Add(d1).Add(d2)
}

// FromBezier wraps a single Bézier span as a Spline.
func FromBezier(c CubicBezier) *Spline { return &Spline{Spans: []CubicBezier{c}} }

func line(a, b geom.Vec2) CubicBezier {
	return CubicBezier{a, a.Lerp(b, 1.0/3), a.Lerp(b, 2.0/3), b}
}

func TestBezierEvalEndpoints(t *testing.T) {
	c := CubicBezier{geom.V2(0, 0), geom.V2(1, 2), geom.V2(3, -1), geom.V2(4, 0)}
	if got := c.Eval(0); !got.Eq(c.P0, 1e-15) {
		t.Errorf("Eval(0) = %v", got)
	}
	if got := c.Eval(1); !got.Eq(c.P3, 1e-15) {
		t.Errorf("Eval(1) = %v", got)
	}
}

func TestBezierLineEval(t *testing.T) {
	c := line(geom.V2(0, 0), geom.V2(10, 0))
	if got := c.Eval(0.5); !got.Eq(geom.V2(5, 0), 1e-12) {
		t.Errorf("midpoint = %v", got)
	}
	if got := c.Deriv(0.5); !geom.ApproxEq(got.Y, 0, 1e-12) || got.X <= 0 {
		t.Errorf("line tangent = %v", got)
	}
}

func TestInterpolatePassesThroughPoints(t *testing.T) {
	pts := []geom.Vec2{
		geom.V2(0, 0), geom.V2(5, 3), geom.V2(12, -2), geom.V2(21, 1),
	}
	s, err := Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(s.Spans))
	}
	for i, p := range pts {
		tt := float64(i) / float64(len(pts)-1)
		if got := s.Eval(tt); !got.Eq(p, 1e-9) {
			t.Errorf("Eval(%g) = %v, want %v", tt, got, p)
		}
	}
}

func TestInterpolateErrors(t *testing.T) {
	if _, err := Interpolate([]geom.Vec2{{}}); err == nil {
		t.Error("expected error for single point")
	}
}

func TestInterpolateC1Continuity(t *testing.T) {
	pts := []geom.Vec2{geom.V2(0, 0), geom.V2(3, 4), geom.V2(8, 2), geom.V2(10, 6)}
	s, err := Interpolate(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Tangent direction must be continuous across span joins.
	for i := 0; i+1 < len(s.Spans); i++ {
		out := s.Spans[i].Deriv(1).Normalized()
		in := s.Spans[i+1].Deriv(0).Normalized()
		if !out.Eq(in, 1e-9) {
			t.Errorf("tangent jump at join %d: %v vs %v", i, out, in)
		}
	}
}

func TestArcLengthLine(t *testing.T) {
	s := FromBezier(line(geom.V2(0, 0), geom.V2(21, 0)))
	if got := s.ArcLength(); !geom.ApproxEq(got, 21, 1e-6) {
		t.Errorf("ArcLength = %v, want 21", got)
	}
}

func TestArcLengthExceedsChord(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{geom.V2(0, 0), geom.V2(3, 5), geom.V2(6, -5), geom.V2(9, 0)})
	chord := s.Start().Dist(s.End())
	if s.ArcLength() <= chord {
		t.Errorf("arc length %v should exceed chord %v", s.ArcLength(), chord)
	}
}

func TestFlattenHonoursDeviation(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{
		geom.V2(0, 0), geom.V2(7, 2), geom.V2(14, -2), geom.V2(21, 0),
	})
	for _, dev := range []float64{0.5, 0.05, 0.005} {
		pts, err := s.Flatten(FlattenOpts{Deviation: dev, Angle: 0.5})
		if err != nil {
			t.Fatalf("dev %g: %v", dev, err)
		}
		// Every densely sampled curve point must be within dev of the
		// polyline.
		for i := 0; i <= 500; i++ {
			p := s.Eval(float64(i) / 500)
			if d := distToPolyline(p, pts); d > dev*1.01 {
				t.Fatalf("dev %g: curve point %v is %g from polyline", dev, p, d)
			}
		}
	}
}

func TestFlattenFinerDeviationMoreSegments(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{
		geom.V2(0, 0), geom.V2(7, 2), geom.V2(14, -2), geom.V2(21, 0),
	})
	coarse, _ := s.Flatten(FlattenOpts{Deviation: 0.2, Angle: 0.6})
	fine, _ := s.Flatten(FlattenOpts{Deviation: 0.002, Angle: 0.1})
	if len(fine) <= len(coarse) {
		t.Errorf("fine (%d pts) should use more segments than coarse (%d)", len(fine), len(coarse))
	}
}

func TestFlattenEndpointsExact(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{geom.V2(1, 2), geom.V2(5, -1), geom.V2(9, 3)})
	for _, phase := range []float64{0, 0.25, 0.5, 0.99} {
		pts, err := s.Flatten(FlattenOpts{Deviation: 0.05, Angle: 0.5, Phase: phase})
		if err != nil {
			t.Fatal(err)
		}
		if !pts[0].Eq(s.Start(), 1e-12) || !pts[len(pts)-1].Eq(s.End(), 1e-12) {
			t.Errorf("phase %g: endpoints not exact", phase)
		}
	}
}

func TestFlattenOptsValidate(t *testing.T) {
	bad := []FlattenOpts{
		{Deviation: 0, Angle: 0.1},
		{Deviation: 0.1, Angle: 0},
		{Deviation: 0.1, Angle: 0.1, Phase: 1.5},
		{Deviation: 0.1, Angle: 0.1, Phase: -0.1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := (FlattenOpts{Deviation: 0.1, Angle: 0.1, Phase: 0.5}).Validate(); err != nil {
		t.Errorf("valid opts rejected: %v", err)
	}
}

// The core ObfusCADe mechanism: two flattenings of the same curve with
// different phases mismatch by an amount bounded by ~2x the deviation
// tolerance, and the mismatch shrinks as the tolerance tightens (paper
// Fig. 4: coarse STL shows visible gaps, custom STL does not).
func TestPhaseMismatchScalesWithDeviation(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{
		geom.V2(0, -3), geom.V2(5, 2), geom.V2(11, -2), geom.V2(16, 3), geom.V2(21, -1),
	})
	var prev float64 = math.Inf(1)
	for _, dev := range []float64{0.2, 0.02, 0.002} {
		a, err := s.Flatten(FlattenOpts{Deviation: dev, Angle: 1, Phase: 0})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Flatten(FlattenOpts{Deviation: dev, Angle: 1, Phase: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		mm := MaxMismatch(a, b)
		if mm > 2.2*dev {
			t.Errorf("dev %g: mismatch %g exceeds 2.2x deviation", dev, mm)
		}
		if mm >= prev {
			t.Errorf("dev %g: mismatch %g did not shrink (prev %g)", dev, mm, prev)
		}
		prev = mm
	}
}

func TestMaxMismatchIdentical(t *testing.T) {
	a := []geom.Vec2{geom.V2(0, 0), geom.V2(1, 1), geom.V2(2, 0)}
	if got := MaxMismatch(a, a); got > 1e-12 {
		t.Errorf("self mismatch = %v", got)
	}
}

// Transform returns a copy of the spline with f applied to every control
// point.
func (s *Spline) Transform(f func(geom.Vec2) geom.Vec2) *Spline {
	out := &Spline{Spans: make([]CubicBezier, len(s.Spans))}
	for i, c := range s.Spans {
		out.Spans[i] = CubicBezier{f(c.P0), f(c.P1), f(c.P2), f(c.P3)}
	}
	return out
}

func TestTransform(t *testing.T) {
	s, _ := Interpolate([]geom.Vec2{geom.V2(0, 0), geom.V2(2, 1), geom.V2(4, 0)})
	moved := s.Transform(func(p geom.Vec2) geom.Vec2 { return p.Add(geom.V2(10, 0)) })
	if got := moved.Eval(0.5); !got.Eq(s.Eval(0.5).Add(geom.V2(10, 0)), 1e-12) {
		t.Errorf("Transform mismatch: %v", got)
	}
}

// Property: Eval stays within the convex hull's bounding box of the control
// points (Bézier convex-hull property, per span).
func TestBezierConvexHullBounds(t *testing.T) {
	f := func(xs [8]float64, tv float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			xs[i] = geom.Clamp(xs[i], -1e3, 1e3)
		}
		c := CubicBezier{
			geom.V2(xs[0], xs[1]), geom.V2(xs[2], xs[3]),
			geom.V2(xs[4], xs[5]), geom.V2(xs[6], xs[7]),
		}
		tt := geom.Clamp(math.Abs(tv), 0, 1)
		p := c.Eval(tt)
		minX := math.Min(math.Min(xs[0], xs[2]), math.Min(xs[4], xs[6]))
		maxX := math.Max(math.Max(xs[0], xs[2]), math.Max(xs[4], xs[6]))
		minY := math.Min(math.Min(xs[1], xs[3]), math.Min(xs[5], xs[7]))
		maxY := math.Max(math.Max(xs[1], xs[3]), math.Max(xs[5], xs[7]))
		tol := 1e-9 * (1 + math.Abs(maxX) + math.Abs(maxY))
		return p.X >= minX-tol && p.X <= maxX+tol && p.Y >= minY-tol && p.Y <= maxY+tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arc length is at least the endpoint chord length.
func TestArcLengthAtLeastChord(t *testing.T) {
	f := func(xs [8]float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			xs[i] = geom.Clamp(xs[i], -1e3, 1e3)
		}
		s := FromBezier(CubicBezier{
			geom.V2(xs[0], xs[1]), geom.V2(xs[2], xs[3]),
			geom.V2(xs[4], xs[5]), geom.V2(xs[6], xs[7]),
		})
		chord := s.Start().Dist(s.End())
		return s.ArcLength() >= chord-1e-9*(1+chord)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
