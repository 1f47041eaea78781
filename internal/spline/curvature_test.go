package spline

import (
	"math"
	"testing"

	"obfuscade/internal/geom"
)

// Curvature returns the unsigned curvature at global parameter t
// (1/radius; 0 for straight sections).
func (s *Spline) Curvature(t float64) float64 {
	span, local := s.locate(t)
	c := s.Spans[span]
	d1 := c.Deriv(local)
	// Second derivative of a cubic Bézier.
	u := 1 - local
	a := c.P2.Sub(c.P1.Scale(2)).Add(c.P0)
	b := c.P3.Sub(c.P2.Scale(2)).Add(c.P1)
	d2 := a.Scale(6 * u).Add(b.Scale(6 * local))
	speed := d1.Len()
	if speed == 0 {
		return 0
	}
	return math.Abs(d1.Cross(d2)) / (speed * speed * speed)
}

// ParamAtArcLength returns the global parameter at which the curve has
// accumulated arc length target (clamped to [0, total]).
func (s *Spline) ParamAtArcLength(target float64) float64 {
	if target <= 0 {
		return 0
	}
	const steps = 2048
	var acc float64
	prev := s.Eval(0)
	for i := 1; i <= steps; i++ {
		t := float64(i) / steps
		p := s.Eval(t)
		seg := prev.Dist(p)
		if acc+seg >= target {
			frac := 0.0
			if seg > 0 {
				frac = (target - acc) / seg
			}
			return (float64(i-1) + frac) / steps
		}
		acc += seg
		prev = p
	}
	return 1
}

func TestCurvatureLineZero(t *testing.T) {
	s := FromBezier(line(geom.V2(0, 0), geom.V2(10, 5)))
	for _, tt := range []float64{0.1, 0.5, 0.9} {
		if k := s.Curvature(tt); k > 1e-9 {
			t.Errorf("line curvature at %g = %v", tt, k)
		}
	}
}

func TestCurvatureCircleApprox(t *testing.T) {
	// A cubic Bézier quarter circle of radius 5: control offset
	// k = 4/3*(sqrt(2)-1)*r.
	const r = 5.0
	k := 4.0 / 3.0 * (math.Sqrt2 - 1) * r
	c := CubicBezier{
		P0: geom.V2(r, 0),
		P1: geom.V2(r, k),
		P2: geom.V2(k, r),
		P3: geom.V2(0, r),
	}
	s := FromBezier(c)
	for _, tt := range []float64{0.2, 0.5, 0.8} {
		got := s.Curvature(tt)
		if math.Abs(got-1/r)/(1/r) > 0.03 {
			t.Errorf("quarter-circle curvature at %g = %v, want ~%v", tt, got, 1/r)
		}
	}
}

func TestParamAtArcLength(t *testing.T) {
	s := FromBezier(line(geom.V2(0, 0), geom.V2(20, 0)))
	for _, tc := range []struct{ target, want float64 }{
		{0, 0}, {5, 0.25}, {10, 0.5}, {20, 1}, {25, 1}, {-1, 0},
	} {
		got := s.ParamAtArcLength(tc.target)
		if math.Abs(got-tc.want) > 2e-3 {
			t.Errorf("ParamAtArcLength(%g) = %v, want %v", tc.target, got, tc.want)
		}
	}
}

func TestParamAtArcLengthMonotone(t *testing.T) {
	s, err := Interpolate([]geom.Vec2{
		geom.V2(0, 0), geom.V2(5, 4), geom.V2(11, -3), geom.V2(18, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := s.ArcLength()
	prev := -1.0
	for i := 0; i <= 10; i++ {
		p := s.ParamAtArcLength(total * float64(i) / 10)
		if p <= prev {
			t.Fatalf("param not monotone at step %d: %v after %v", i, p, prev)
		}
		prev = p
	}
	// Round trip: evaluating at the returned parameters accumulates the
	// requested arc lengths.
	half := s.ParamAtArcLength(total / 2)
	if half < 0.2 || half > 0.8 {
		t.Errorf("mid-length parameter %v implausible", half)
	}
}
