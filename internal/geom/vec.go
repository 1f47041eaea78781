// Package geom provides the geometric foundation used by every other
// subsystem in the repository: 2D/3D vectors, matrices, rigid transforms,
// segments, planes, triangles and tolerant 2D polygon operations.
//
// All quantities are in millimetres unless documented otherwise, matching
// the STL unit used throughout the paper ("STL unit of millimeters", §3.1).
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2D vector or point.
type Vec2 struct {
	X, Y float64
}

// V2 constructs a Vec2.
func V2(x, y float64) Vec2 { return Vec2{x, y} }

// Add returns a + b.
func (a Vec2) Add(b Vec2) Vec2 { return Vec2{a.X + b.X, a.Y + b.Y} }

// Sub returns a - b.
func (a Vec2) Sub(b Vec2) Vec2 { return Vec2{a.X - b.X, a.Y - b.Y} }

// Scale returns a scaled by s.
func (a Vec2) Scale(s float64) Vec2 { return Vec2{a.X * s, a.Y * s} }

// Dot returns the dot product a·b.
func (a Vec2) Dot(b Vec2) float64 { return a.X*b.X + a.Y*b.Y }

// Cross returns the z component of the 3D cross product of a and b,
// i.e. the signed area of the parallelogram they span.
func (a Vec2) Cross(b Vec2) float64 { return a.X*b.Y - a.Y*b.X }

// Len returns the Euclidean norm of a.
func (a Vec2) Len() float64 { return math.Hypot(a.X, a.Y) }

// LenSq returns the squared Euclidean norm of a.
func (a Vec2) LenSq() float64 { return a.X*a.X + a.Y*a.Y }

// Dist returns the Euclidean distance between a and b.
func (a Vec2) Dist(b Vec2) float64 { return a.Sub(b).Len() }

// DistSq returns the squared Euclidean distance between a and b.
func (a Vec2) DistSq(b Vec2) float64 { return a.Sub(b).LenSq() }

// Normalized returns a unit vector in the direction of a.
// The zero vector is returned unchanged.
func (a Vec2) Normalized() Vec2 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Perp returns a rotated 90 degrees counter-clockwise.
func (a Vec2) Perp() Vec2 { return Vec2{-a.Y, a.X} }

// Lerp returns the linear interpolation between a and b at parameter t.
func (a Vec2) Lerp(b Vec2, t float64) Vec2 {
	return Vec2{a.X + (b.X-a.X)*t, a.Y + (b.Y-a.Y)*t}
}

// Eq reports whether a and b coincide within tolerance tol.
func (a Vec2) Eq(b Vec2, tol float64) bool { return a.DistSq(b) <= tol*tol }

// String implements fmt.Stringer.
func (a Vec2) String() string { return fmt.Sprintf("(%.6g, %.6g)", a.X, a.Y) }

// Vec3 is a 3D vector or point.
type Vec3 struct {
	X, Y, Z float64
}

// V3 constructs a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a scaled by s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a×b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean norm of a.
func (a Vec3) Len() float64 { return math.Sqrt(a.LenSq()) }

// LenSq returns the squared Euclidean norm of a.
func (a Vec3) LenSq() float64 { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// Dist returns the Euclidean distance between a and b.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Len() }

// DistSq returns the squared Euclidean distance between a and b.
func (a Vec3) DistSq(b Vec3) float64 { return a.Sub(b).LenSq() }

// Normalized returns a unit vector in the direction of a.
// The zero vector is returned unchanged.
func (a Vec3) Normalized() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Neg returns -a.
func (a Vec3) Neg() Vec3 { return Vec3{-a.X, -a.Y, -a.Z} }

// Lerp returns the linear interpolation between a and b at parameter t.
func (a Vec3) Lerp(b Vec3, t float64) Vec3 {
	return Vec3{
		a.X + (b.X-a.X)*t,
		a.Y + (b.Y-a.Y)*t,
		a.Z + (b.Z-a.Z)*t,
	}
}

// Eq reports whether a and b coincide within tolerance tol.
func (a Vec3) Eq(b Vec3, tol float64) bool { return a.DistSq(b) <= tol*tol }

// XY projects a onto the XY plane.
func (a Vec3) XY() Vec2 { return Vec2{a.X, a.Y} }

// Min returns the component-wise minimum of a and b.
func (a Vec3) Min(b Vec3) Vec3 {
	return Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a Vec3) Max(b Vec3) Vec3 {
	return Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// Abs returns the component-wise absolute value of a.
func (a Vec3) Abs() Vec3 {
	return Vec3{math.Abs(a.X), math.Abs(a.Y), math.Abs(a.Z)}
}

// String implements fmt.Stringer.
func (a Vec3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", a.X, a.Y, a.Z)
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApproxEq reports whether two floats agree within tol.
func ApproxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
