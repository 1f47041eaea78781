package geom

import "math"

// AABB is an axis-aligned bounding box in 3D.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns an inverted box ready for extension.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Extend grows the box to contain p.
func (b *AABB) Extend(p Vec3) {
	b.Min = b.Min.Min(p)
	b.Max = b.Max.Max(p)
}

// Union returns the smallest box containing both a and o.
func (b AABB) Union(o AABB) AABB {
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Size returns the box edge lengths.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the centroid of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Contains reports whether p lies inside the closed box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// IsEmpty reports whether the box contains no point.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Volume returns the box volume (zero for empty boxes).
func (b AABB) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Segment2 is a 2D line segment from A to B.
type Segment2 struct {
	A, B Vec2
}

// ClosestParam returns the parameter t in [0,1] of the point on s closest
// to p.
func (s Segment2) ClosestParam(p Vec2) float64 {
	d := s.B.Sub(s.A)
	ll := d.LenSq()
	if ll == 0 {
		return 0
	}
	return Clamp(p.Sub(s.A).Dot(d)/ll, 0, 1)
}

// ClosestPoint returns the point on s closest to p.
func (s Segment2) ClosestPoint(p Vec2) Vec2 {
	return s.A.Lerp(s.B, s.ClosestParam(p))
}

// Dist returns the distance from p to segment s.
func (s Segment2) Dist(p Vec2) float64 { return s.ClosestPoint(p).Dist(p) }

// ProperlyIntersects reports whether segments s and o cross transversally
// at a single interior point (strict crossing; touching endpoints and
// collinear overlap do not count).
func (s Segment2) ProperlyIntersects(o Segment2) bool {
	d1 := o.B.Sub(o.A).Cross(s.A.Sub(o.A))
	d2 := o.B.Sub(o.A).Cross(s.B.Sub(o.A))
	d3 := s.B.Sub(s.A).Cross(o.A.Sub(s.A))
	d4 := s.B.Sub(s.A).Cross(o.B.Sub(s.A))
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

// Triangle is a 3D triangle with explicit vertex order (CCW seen from the
// outward normal side).
type Triangle struct {
	A, B, C Vec3
}

// Normal returns the unit normal of the triangle (right-hand rule).
func (t Triangle) Normal() Vec3 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A)).Normalized()
}

// Area returns the triangle area.
func (t Triangle) Area() float64 {
	return t.B.Sub(t.A).Cross(t.C.Sub(t.A)).Len() / 2
}

// Centroid returns the triangle centroid.
func (t Triangle) Centroid() Vec3 {
	return t.A.Add(t.B).Add(t.C).Scale(1.0 / 3.0)
}

// Bounds returns the triangle's bounding box.
func (t Triangle) Bounds() AABB {
	b := EmptyAABB()
	b.Extend(t.A)
	b.Extend(t.B)
	b.Extend(t.C)
	return b
}

// SignedVolume returns the signed volume of the tetrahedron formed by the
// triangle and the origin; summing over a closed shell yields the enclosed
// volume (positive for outward-oriented shells).
func (t Triangle) SignedVolume() float64 {
	return t.A.Dot(t.B.Cross(t.C)) / 6
}

// IsDegenerate reports whether the triangle has (near-)zero area or
// repeated vertices within tol.
func (t Triangle) IsDegenerate(tol float64) bool {
	if t.A.Eq(t.B, tol) || t.B.Eq(t.C, tol) || t.A.Eq(t.C, tol) {
		return true
	}
	return t.Area() <= tol*tol
}

// IntersectPlaneZ intersects the triangle with the horizontal plane z=h and
// returns the intersection segment endpoints. ok is false when the triangle
// does not cross the plane transversally (entirely above, below, or
// coplanar).
func (t Triangle) IntersectPlaneZ(h float64) (p, q Vec3, ok bool) {
	da := t.A.Z - h
	db := t.B.Z - h
	dc := t.C.Z - h
	// Count strict sides.
	pos := 0
	neg := 0
	for _, d := range [3]float64{da, db, dc} {
		if d > 0 {
			pos++
		} else if d < 0 {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return Vec3{}, Vec3{}, false // no transversal crossing
	}
	// Each edge contributes at most one point, so a fixed buffer keeps
	// this allocation-free (it sits in the slicer's innermost loop).
	var pts [3]Vec3
	np := 0
	edge := func(u, v Vec3, du, dv float64) {
		if (du > 0 && dv < 0) || (du < 0 && dv > 0) {
			t := du / (du - dv)
			pts[np] = u.Lerp(v, t)
			np++
		} else if du == 0 {
			pts[np] = u
			np++
		}
	}
	edge(t.A, t.B, da, db)
	edge(t.B, t.C, db, dc)
	edge(t.C, t.A, dc, da)
	// Deduplicate in place (a vertex exactly on the plane is visited
	// twice).
	uniq := 0
	for i := 0; i < np; i++ {
		dup := false
		for j := 0; j < uniq; j++ {
			if pts[i].Eq(pts[j], 1e-12) {
				dup = true
				break
			}
		}
		if !dup {
			pts[uniq] = pts[i]
			uniq++
		}
	}
	if uniq < 2 {
		return Vec3{}, Vec3{}, false
	}
	return pts[0], pts[1], true
}
