package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// Plane is an oriented plane {p : p·Normal = Offset}.
type Plane struct {
	Normal Vec3    // unit normal
	Offset float64 // signed distance of the plane from the origin
}

// PlaneZ returns a horizontal plane at height z with +Z normal.
func PlaneZ(z float64) Plane { return Plane{Normal: Vec3{0, 0, 1}, Offset: z} }

// SignedDist returns the signed distance of p from the plane.
func (pl Plane) SignedDist(p Vec3) float64 { return p.Dot(pl.Normal) - pl.Offset }

func TestAABBExtendContains(t *testing.T) {
	b := EmptyAABB()
	if !b.IsEmpty() {
		t.Error("EmptyAABB should be empty")
	}
	b.Extend(V3(1, 2, 3))
	b.Extend(V3(-1, 0, 5))
	if b.IsEmpty() {
		t.Error("box should not be empty after Extend")
	}
	if !b.Contains(V3(0, 1, 4)) {
		t.Error("box should contain interior point")
	}
	if b.Contains(V3(2, 1, 4)) {
		t.Error("box should not contain exterior point")
	}
	if got := b.Size(); !got.Eq(V3(2, 2, 2), 1e-15) {
		t.Errorf("Size = %v", got)
	}
	if got := b.Volume(); !ApproxEq(got, 8, 1e-12) {
		t.Errorf("Volume = %v", got)
	}
	if got := b.Center(); !got.Eq(V3(0, 1, 4), 1e-15) {
		t.Errorf("Center = %v", got)
	}
}

func TestAABBUnion(t *testing.T) {
	a := AABB{Min: V3(0, 0, 0), Max: V3(1, 1, 1)}
	b := AABB{Min: V3(2, -1, 0), Max: V3(3, 0.5, 2)}
	u := a.Union(b)
	if !u.Contains(V3(0.5, 0.5, 0.5)) || !u.Contains(V3(2.5, 0, 1)) {
		t.Error("union should contain both boxes")
	}
}

func TestSegment2Closest(t *testing.T) {
	s := Segment2{V2(0, 0), V2(10, 0)}
	if got := s.ClosestPoint(V2(5, 3)); !got.Eq(V2(5, 0), 1e-12) {
		t.Errorf("ClosestPoint = %v", got)
	}
	if got := s.ClosestPoint(V2(-4, 3)); !got.Eq(V2(0, 0), 1e-12) {
		t.Errorf("ClosestPoint clamps to A: %v", got)
	}
	if got := s.Dist(V2(5, 3)); !ApproxEq(got, 3, 1e-12) {
		t.Errorf("Dist = %v", got)
	}
	// Degenerate segment.
	d := Segment2{V2(1, 1), V2(1, 1)}
	if got := d.Dist(V2(4, 5)); !ApproxEq(got, 5, 1e-12) {
		t.Errorf("degenerate Dist = %v", got)
	}
}

func TestPlaneSignedDist(t *testing.T) {
	pl := PlaneZ(2)
	if got := pl.SignedDist(V3(0, 0, 5)); !ApproxEq(got, 3, 1e-15) {
		t.Errorf("SignedDist = %v", got)
	}
	if got := pl.SignedDist(V3(0, 0, -1)); !ApproxEq(got, -3, 1e-15) {
		t.Errorf("SignedDist = %v", got)
	}
}

func TestTriangleNormalAreaCentroid(t *testing.T) {
	tr := Triangle{V3(0, 0, 0), V3(2, 0, 0), V3(0, 2, 0)}
	if got := tr.Normal(); !got.Eq(V3(0, 0, 1), 1e-12) {
		t.Errorf("Normal = %v", got)
	}
	if got := tr.Area(); !ApproxEq(got, 2, 1e-12) {
		t.Errorf("Area = %v", got)
	}
	if got := tr.Centroid(); !got.Eq(V3(2.0/3, 2.0/3, 0), 1e-12) {
		t.Errorf("Centroid = %v", got)
	}
}

func TestTriangleDegenerate(t *testing.T) {
	if !(Triangle{V3(0, 0, 0), V3(0, 0, 0), V3(1, 0, 0)}).IsDegenerate(1e-9) {
		t.Error("repeated vertex should be degenerate")
	}
	if !(Triangle{V3(0, 0, 0), V3(1, 0, 0), V3(2, 0, 0)}).IsDegenerate(1e-9) {
		t.Error("collinear triangle should be degenerate")
	}
	if (Triangle{V3(0, 0, 0), V3(1, 0, 0), V3(0, 1, 0)}).IsDegenerate(1e-9) {
		t.Error("proper triangle should not be degenerate")
	}
}

func TestTriangleIntersectPlaneZ(t *testing.T) {
	tr := Triangle{V3(0, 0, 0), V3(2, 0, 2), V3(0, 2, 2)}
	p, q, ok := tr.IntersectPlaneZ(1)
	if !ok {
		t.Fatal("expected intersection")
	}
	if !ApproxEq(p.Z, 1, 1e-12) || !ApproxEq(q.Z, 1, 1e-12) {
		t.Errorf("intersection not on plane: %v %v", p, q)
	}
	// Entirely above.
	if _, _, ok := tr.IntersectPlaneZ(-1); ok {
		t.Error("no intersection expected below")
	}
	// Entirely below.
	if _, _, ok := tr.IntersectPlaneZ(3); ok {
		t.Error("no intersection expected above")
	}
	// Coplanar triangle is not a transversal crossing.
	flat := Triangle{V3(0, 0, 1), V3(1, 0, 1), V3(0, 1, 1)}
	if _, _, ok := flat.IntersectPlaneZ(1); ok {
		t.Error("coplanar triangle should not intersect transversally")
	}
}

func TestTriangleVertexOnPlane(t *testing.T) {
	// One vertex exactly on the plane, others on opposite sides.
	tr := Triangle{V3(0, 0, 0), V3(2, 0, 1), V3(-1, 1, -1)}
	p, q, ok := tr.IntersectPlaneZ(0)
	if !ok {
		t.Fatal("expected intersection through vertex")
	}
	if !ApproxEq(p.Z, 0, 1e-12) || !ApproxEq(q.Z, 0, 1e-12) {
		t.Errorf("intersection not on plane: %v %v", p, q)
	}
}

// Property: the intersection segment endpoints always lie on the plane and
// inside the triangle's bounding box.
func TestIntersectPlaneZProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz, h float64) bool {
		tr := Triangle{
			V3(clampMag(ax), clampMag(ay), clampMag(az)),
			V3(clampMag(bx), clampMag(by), clampMag(bz)),
			V3(clampMag(cx), clampMag(cy), clampMag(cz)),
		}
		h = clampMag(h)
		p, q, ok := tr.IntersectPlaneZ(h)
		if !ok {
			return true
		}
		b := tr.Bounds()
		tol := 1e-6 * (1 + b.Size().Len())
		grow := V3(tol, tol, tol)
		bb := AABB{Min: b.Min.Sub(grow), Max: b.Max.Add(grow)}
		return math.Abs(p.Z-h) <= tol && math.Abs(q.Z-h) <= tol &&
			bb.Contains(p) && bb.Contains(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedVolumeCube(t *testing.T) {
	// A unit cube built from 12 outward-oriented triangles has volume 1.
	v := []Vec3{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	quads := [][4]int{
		{3, 2, 1, 0}, // bottom (z=0), outward -Z
		{4, 5, 6, 7}, // top (z=1), outward +Z
		{0, 1, 5, 4}, // front (y=0)
		{2, 3, 7, 6}, // back (y=1)
		{1, 2, 6, 5}, // right (x=1)
		{3, 0, 4, 7}, // left (x=0)
	}
	var vol float64
	for _, q := range quads {
		t1 := Triangle{v[q[0]], v[q[1]], v[q[2]]}
		t2 := Triangle{v[q[0]], v[q[2]], v[q[3]]}
		vol += t1.SignedVolume() + t2.SignedVolume()
	}
	if !ApproxEq(vol, 1, 1e-12) {
		t.Errorf("cube signed volume = %v, want 1", vol)
	}
}
