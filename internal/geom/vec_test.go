package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// Angle returns the angle between a and b in radians, in [0, pi].
func (a Vec3) Angle(b Vec3) float64 {
	d := a.Normalized().Dot(b.Normalized())
	return math.Acos(Clamp(d, -1, 1))
}

func TestVec2Basics(t *testing.T) {
	a := V2(3, 4)
	b := V2(-1, 2)
	if got := a.Add(b); got != V2(2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V2(4, 2) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := a.Dot(b); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := a.Cross(b); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := a.Normalized().Len(); !ApproxEq(got, 1, 1e-12) {
		t.Errorf("Normalized length = %v", got)
	}
	if got := V2(0, 0).Normalized(); got != V2(0, 0) {
		t.Errorf("zero Normalized = %v", got)
	}
}

func TestVec2Perp(t *testing.T) {
	a := V2(2, 1)
	p := a.Perp()
	if !ApproxEq(a.Dot(p), 0, 1e-15) {
		t.Errorf("Perp not orthogonal: %v", a.Dot(p))
	}
	if a.Cross(p) <= 0 {
		t.Errorf("Perp should rotate CCW")
	}
}

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, 5, 6)
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	c := a.Cross(b)
	if !ApproxEq(c.Dot(a), 0, 1e-12) || !ApproxEq(c.Dot(b), 0, 1e-12) {
		t.Errorf("Cross not orthogonal: %v", c)
	}
	if got := V3(3, 4, 12).Len(); got != 13 {
		t.Errorf("Len = %v, want 13", got)
	}
	if got := a.Lerp(b, 0.5); !got.Eq(V3(2.5, 3.5, 4.5), 1e-12) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestVec3MinMaxAbs(t *testing.T) {
	a := V3(1, -5, 3)
	b := V3(-2, 4, 3)
	if got := a.Min(b); got != V3(-2, -5, 3) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V3(1, 4, 3) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Abs(); got != V3(1, 5, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestVec3Angle(t *testing.T) {
	if got := V3(1, 0, 0).Angle(V3(0, 1, 0)); !ApproxEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Angle = %v", got)
	}
	if got := V3(1, 1, 0).Angle(V3(2, 2, 0)); !ApproxEq(got, 0, 1e-7) {
		t.Errorf("parallel Angle = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

// Property: cross product is anti-commutative and orthogonal to operands.
func TestCrossProperties(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(clampMag(ax), clampMag(ay), clampMag(az))
		b := V3(clampMag(bx), clampMag(by), clampMag(bz))
		c := a.Cross(b)
		d := b.Cross(a)
		scale := math.Max(1, a.Len()*b.Len())
		return c.Add(d).Len() <= 1e-9*scale &&
			math.Abs(c.Dot(a)) <= 1e-6*scale*scale &&
			math.Abs(c.Dot(b)) <= 1e-6*scale*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |a·b| <= |a||b| (Cauchy-Schwarz).
func TestDotCauchySchwarz(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3(clampMag(ax), clampMag(ay), clampMag(az))
		b := V3(clampMag(bx), clampMag(by), clampMag(bz))
		return math.Abs(a.Dot(b)) <= a.Len()*b.Len()*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampMag maps arbitrary quick-generated floats into a sane range so the
// properties are not destroyed by overflow to Inf.
func clampMag(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return Clamp(v, -1e6, 1e6)
}
