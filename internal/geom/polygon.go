package geom

import "math"

// Polygon is a closed 2D loop of vertices. The closing edge from the last
// vertex back to the first is implicit. Positive signed area means
// counter-clockwise orientation.
type Polygon []Vec2

// SignedArea returns the signed area of the polygon (shoelace formula).
// Counter-clockwise loops have positive area.
func (p Polygon) SignedArea() float64 {
	var a float64
	n := len(p)
	if n < 3 {
		return 0
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += p[i].Cross(p[j])
	}
	return a / 2
}

// Area returns the absolute area of the polygon.
func (p Polygon) Area() float64 { return math.Abs(p.SignedArea()) }

// IsCCW reports whether the polygon winds counter-clockwise.
func (p Polygon) IsCCW() bool { return p.SignedArea() > 0 }

// Reversed returns a copy of the polygon with opposite winding.
func (p Polygon) Reversed() Polygon {
	r := make(Polygon, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// Perimeter returns the total edge length including the closing edge.
func (p Polygon) Perimeter() float64 {
	var l float64
	n := len(p)
	for i := 0; i < n; i++ {
		l += p[i].Dist(p[(i+1)%n])
	}
	return l
}

// Bounds2 is a 2D axis-aligned bounding box.
type Bounds2 struct {
	Min, Max Vec2
}

// ContainsPoint reports whether q lies inside the closed box. In exact
// arithmetic every point outside the bounding box of a closed loop has
// winding number zero; the slicer's winding probes use the box as their
// reject test, which in float also settles points an ulp off the loop.
func (b Bounds2) ContainsPoint(q Vec2) bool {
	return q.X >= b.Min.X && q.X <= b.Max.X && q.Y >= b.Min.Y && q.Y <= b.Max.Y
}

// Overlaps reports whether the two closed boxes share at least one point.
func (b Bounds2) Overlaps(o Bounds2) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// DistSq returns the squared distance from q to the closed box (zero
// inside). It lower-bounds the squared distance from q to anything the box
// contains, so distance searches can prune whole boxes against the best
// squared distance found so far without changing their result.
func (b Bounds2) DistSq(q Vec2) float64 {
	var dx, dy float64
	if q.X < b.Min.X {
		dx = b.Min.X - q.X
	} else if q.X > b.Max.X {
		dx = q.X - b.Max.X
	}
	if q.Y < b.Min.Y {
		dy = b.Min.Y - q.Y
	} else if q.Y > b.Max.Y {
		dy = q.Y - b.Max.Y
	}
	return dx*dx + dy*dy
}

// Bounds returns the polygon's bounding box.
func (p Polygon) Bounds() Bounds2 {
	inf := math.Inf(1)
	b := Bounds2{Min: Vec2{inf, inf}, Max: Vec2{-inf, -inf}}
	for _, v := range p {
		b.Min.X = math.Min(b.Min.X, v.X)
		b.Min.Y = math.Min(b.Min.Y, v.Y)
		b.Max.X = math.Max(b.Max.X, v.X)
		b.Max.Y = math.Max(b.Max.Y, v.Y)
	}
	return b
}

// WindingStep returns edge a->b's contribution to a winding number around
// q: +1 for an upward crossing with q on its left, -1 for a downward
// crossing with q on its right, 0 otherwise. It is nonzero only when
// min(a.Y, b.Y) <= q.Y < max(a.Y, b.Y), so an index that buckets edges by
// y-extent can sum it over just the edges whose extent holds q.Y.
func WindingStep(a, b, q Vec2) int {
	if a.Y <= q.Y {
		if b.Y > q.Y && b.Sub(a).Cross(q.Sub(a)) > 0 {
			return 1
		}
	} else if b.Y <= q.Y && b.Sub(a).Cross(q.Sub(a)) < 0 {
		return -1
	}
	return 0
}

// Simplify removes consecutive vertices closer than tol and collinear
// vertices whose removal changes the outline by less than tol.
func (p Polygon) Simplify(tol float64) Polygon {
	if len(p) < 3 {
		return p
	}
	out := make(Polygon, 0, len(p))
	for _, v := range p {
		if len(out) > 0 && out[len(out)-1].Eq(v, tol) {
			continue
		}
		out = append(out, v)
	}
	// Drop a duplicated closing vertex.
	for len(out) >= 2 && out[0].Eq(out[len(out)-1], tol) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return out
	}
	// Remove near-collinear vertices. Each candidate is tested against
	// the segment from the last *kept* vertex to its next original
	// neighbour, so cumulative drift stays bounded by tol (testing
	// against original neighbours would let cascaded removals flatten
	// genuine curvature).
	res := make(Polygon, 0, len(out))
	res = append(res, out[0])
	n := len(out)
	for i := 1; i < n; i++ {
		cur := out[i]
		next := out[(i+1)%n]
		last := res[len(res)-1]
		if (Segment2{A: last, B: next}).Dist(cur) > tol {
			res = append(res, cur)
		}
	}
	if len(res) < 3 {
		return out
	}
	return res
}

// Inset returns the polygon offset inward by distance d (for CCW
// polygons; CW polygons are offset outward by symmetry). Vertices move
// along their angle bisectors with miter limiting. ok is false when the
// inset degenerates (too narrow a region, flipped orientation or
// collapsed area).
func (p Polygon) Inset(d float64) (Polygon, bool) {
	n := len(p)
	if n < 3 || d <= 0 {
		return nil, false
	}
	out := make(Polygon, 0, n)
	const miterLimit = 4.0
	for i := 0; i < n; i++ {
		prev := p[(i-1+n)%n]
		cur := p[i]
		next := p[(i+1)%n]
		d1 := cur.Sub(prev).Normalized()
		d2 := next.Sub(cur).Normalized()
		// Inward normals for a CCW polygon are the left-hand perps.
		n1 := d1.Perp()
		n2 := d2.Perp()
		bis := n1.Add(n2)
		l := bis.Len()
		if l < 1e-12 {
			// 180-degree reversal: fall back to a single normal.
			bis = n1
			l = 1
		}
		bis = bis.Scale(1 / l)
		// Miter length: d / cos(half angle); cos = bis·n1.
		c := bis.Dot(n1)
		scale := d
		if c > 1e-6 {
			scale = d / c
		}
		if scale > miterLimit*d {
			scale = miterLimit * d
		}
		out = append(out, cur.Add(bis.Scale(scale)))
	}
	out = out.Simplify(1e-9)
	if len(out) < 3 {
		return nil, false
	}
	a0 := p.SignedArea()
	a1 := out.SignedArea()
	// The inset must preserve orientation and strictly shrink.
	if a0 > 0 && (a1 <= 0 || a1 >= a0) {
		return nil, false
	}
	// CW polygons offset outward, so their (negative) area must grow in
	// magnitude.
	if a0 < 0 && (a1 >= 0 || a1 >= a0) {
		return nil, false
	}
	return out, true
}
