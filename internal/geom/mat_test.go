package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// Identity returns the identity transform.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// ApplyDir transforms direction d (w = 0), ignoring translation.
func (m Mat4) ApplyDir(d Vec3) Vec3 {
	return Vec3{
		m[0]*d.X + m[1]*d.Y + m[2]*d.Z,
		m[4]*d.X + m[5]*d.Y + m[6]*d.Z,
		m[8]*d.X + m[9]*d.Y + m[10]*d.Z,
	}
}

// ApplyNormal transforms a normal vector and re-normalises it. For the
// rigid and uniform-scale transforms used in this repository the inverse
// transpose equals the linear part up to scale, so this is exact.
func (m Mat4) ApplyNormal(n Vec3) Vec3 { return m.ApplyDir(n).Normalized() }

// Det returns the determinant of the upper-left 3x3 linear part.
func (m Mat4) Det3() float64 {
	return m[0]*(m[5]*m[10]-m[6]*m[9]) -
		m[1]*(m[4]*m[10]-m[6]*m[8]) +
		m[2]*(m[4]*m[9]-m[5]*m[8])
}

// IsRigid reports whether the linear part of m is orthonormal with
// determinant +1 (rotation + translation only), within tol.
func (m Mat4) IsRigid(tol float64) bool {
	cols := [3]Vec3{
		{m[0], m[4], m[8]},
		{m[1], m[5], m[9]},
		{m[2], m[6], m[10]},
	}
	for i := 0; i < 3; i++ {
		if !ApproxEq(cols[i].Len(), 1, tol) {
			return false
		}
		for j := i + 1; j < 3; j++ {
			if !ApproxEq(cols[i].Dot(cols[j]), 0, tol) {
				return false
			}
		}
	}
	return ApproxEq(m.Det3(), 1, tol)
}

func TestIdentityApply(t *testing.T) {
	p := V3(1, 2, 3)
	if got := Identity().Apply(p); !got.Eq(p, 1e-15) {
		t.Errorf("Identity.Apply = %v", got)
	}
}

func TestTranslate(t *testing.T) {
	m := Translate(V3(10, -5, 2))
	if got := m.Apply(V3(1, 1, 1)); !got.Eq(V3(11, -4, 3), 1e-15) {
		t.Errorf("Translate.Apply = %v", got)
	}
	// Directions are unaffected by translation.
	if got := m.ApplyDir(V3(1, 1, 1)); !got.Eq(V3(1, 1, 1), 1e-15) {
		t.Errorf("Translate.ApplyDir = %v", got)
	}
}

func TestRotateX90(t *testing.T) {
	// RotateX(pi/2) maps +Y to +Z: this is the x-y -> x-z reorientation
	// used for the print-orientation experiments (Fig. 6).
	m := RotateX(math.Pi / 2)
	if got := m.Apply(V3(0, 1, 0)); !got.Eq(V3(0, 0, 1), 1e-12) {
		t.Errorf("RotateX(90).Apply(+Y) = %v, want +Z", got)
	}
	if got := m.Apply(V3(0, 0, 1)); !got.Eq(V3(0, -1, 0), 1e-12) {
		t.Errorf("RotateX(90).Apply(+Z) = %v, want -Y", got)
	}
}

func TestRotateYZ(t *testing.T) {
	if got := RotateY(math.Pi / 2).Apply(V3(0, 0, 1)); !got.Eq(V3(1, 0, 0), 1e-12) {
		t.Errorf("RotateY(90).Apply(+Z) = %v, want +X", got)
	}
	if got := RotateZ(math.Pi / 2).Apply(V3(1, 0, 0)); !got.Eq(V3(0, 1, 0), 1e-12) {
		t.Errorf("RotateZ(90).Apply(+X) = %v, want +Y", got)
	}
}

func TestMulComposition(t *testing.T) {
	m := Translate(V3(1, 0, 0)).Mul(RotateZ(math.Pi / 2))
	// Rotation applied first, then translation.
	if got := m.Apply(V3(1, 0, 0)); !got.Eq(V3(1, 1, 0), 1e-12) {
		t.Errorf("composite = %v, want (1,1,0)", got)
	}
}

func TestIsRigid(t *testing.T) {
	if !RotateX(0.3).Mul(Translate(V3(1, 2, 3))).IsRigid(1e-9) {
		t.Error("rotation+translation should be rigid")
	}
	if ScaleUniform(2).IsRigid(1e-9) {
		t.Error("scaling should not be rigid")
	}
	if Scale(V3(1, 1, -1)).IsRigid(1e-9) {
		t.Error("mirror should not be rigid (det = -1)")
	}
}

func TestDet3(t *testing.T) {
	if got := ScaleUniform(2).Det3(); !ApproxEq(got, 8, 1e-12) {
		t.Errorf("Det3 = %v, want 8", got)
	}
	if got := RotateY(1.234).Det3(); !ApproxEq(got, 1, 1e-12) {
		t.Errorf("rotation Det3 = %v, want 1", got)
	}
}

// Property: rigid transforms preserve distances.
func TestRigidPreservesDistance(t *testing.T) {
	f := func(angle, tx, ty, tz, px, py, pz, qx, qy, qz float64) bool {
		angle = Clamp(clampMag(angle), -10, 10)
		m := Translate(V3(clampMag(tx), clampMag(ty), clampMag(tz))).
			Mul(RotateZ(angle)).Mul(RotateX(angle / 2))
		p := V3(clampMag(px), clampMag(py), clampMag(pz))
		q := V3(clampMag(qx), clampMag(qy), clampMag(qz))
		before := p.Dist(q)
		after := m.Apply(p).Dist(m.Apply(q))
		return math.Abs(before-after) <= 1e-6*(1+before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ApplyNormal returns unit vectors for nonzero input.
func TestApplyNormalUnit(t *testing.T) {
	f := func(angle, nx, ny, nz float64) bool {
		n := V3(clampMag(nx), clampMag(ny), clampMag(nz))
		if n.Len() < 1e-9 {
			return true
		}
		m := RotateX(Clamp(clampMag(angle), -10, 10))
		return ApproxEq(m.ApplyNormal(n).Len(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
