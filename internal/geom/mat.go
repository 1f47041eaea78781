package geom

import "math"

// Mat4 is a 4x4 row-major homogeneous transformation matrix.
type Mat4 [16]float64

// Translate returns a translation by t.
func Translate(t Vec3) Mat4 {
	return Mat4{
		1, 0, 0, t.X,
		0, 1, 0, t.Y,
		0, 0, 1, t.Z,
		0, 0, 0, 1,
	}
}

// ScaleUniform returns a uniform scaling about the origin.
func ScaleUniform(s float64) Mat4 { return Scale(Vec3{s, s, s}) }

// Scale returns an anisotropic scaling about the origin.
func Scale(s Vec3) Mat4 {
	return Mat4{
		s.X, 0, 0, 0,
		0, s.Y, 0, 0,
		0, 0, s.Z, 0,
		0, 0, 0, 1,
	}
}

// RotateX returns a rotation of angle radians about the +X axis.
func RotateX(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		1, 0, 0, 0,
		0, c, -s, 0,
		0, s, c, 0,
		0, 0, 0, 1,
	}
}

// RotateY returns a rotation of angle radians about the +Y axis.
func RotateY(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		c, 0, s, 0,
		0, 1, 0, 0,
		-s, 0, c, 0,
		0, 0, 0, 1,
	}
}

// RotateZ returns a rotation of angle radians about the +Z axis.
func RotateZ(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		c, -s, 0, 0,
		s, c, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mul returns the matrix product m * n (n applied first).
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var sum float64
			for k := 0; k < 4; k++ {
				sum += m[i*4+k] * n[k*4+j]
			}
			r[i*4+j] = sum
		}
	}
	return r
}

// Apply transforms point p (w = 1).
func (m Mat4) Apply(p Vec3) Vec3 {
	return Vec3{
		m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3],
		m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7],
		m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11],
	}
}
