package mesh

import (
	"math"
	"sync"

	"obfuscade/internal/geom"
)

// BoxShell builds a closed, outward-oriented rectangular box shell spanning
// [min, max].
func BoxShell(name, body string, min, max geom.Vec3) Shell {
	v := [8]geom.Vec3{
		geom.V3(min.X, min.Y, min.Z), geom.V3(max.X, min.Y, min.Z),
		geom.V3(max.X, max.Y, min.Z), geom.V3(min.X, max.Y, min.Z),
		geom.V3(min.X, min.Y, max.Z), geom.V3(max.X, min.Y, max.Z),
		geom.V3(max.X, max.Y, max.Z), geom.V3(min.X, max.Y, max.Z),
	}
	quads := [][4]int{
		{3, 2, 1, 0}, // bottom, outward -Z
		{4, 5, 6, 7}, // top, outward +Z
		{0, 1, 5, 4}, // front y=min
		{2, 3, 7, 6}, // back y=max
		{1, 2, 6, 5}, // right x=max
		{3, 0, 4, 7}, // left x=min
	}
	s := Shell{Name: name, Body: body, Orient: Outward}
	for _, q := range quads {
		s.Tris = append(s.Tris,
			geom.Triangle{A: v[q[0]], B: v[q[1]], C: v[q[2]]},
			geom.Triangle{A: v[q[0]], B: v[q[2]], C: v[q[3]]},
		)
	}
	return s
}

// trigTables is the pooled scratch of SphereShell: per-ring sin/cos
// values computed once instead of four trig calls per emitted point.
// Entries are computed with the exact expressions the per-point reference
// uses, so the facets come out bit-identical.
type trigTables struct {
	st, ct, sp, cp []float64
}

var trigPool = sync.Pool{New: func() any { return new(trigTables) }}

// growF returns b resized to n, reallocating only when capacity is short.
// Contents are unspecified; callers overwrite what they need.
func growF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// SphereShell builds a closed, outward-oriented UV sphere with the given
// number of latitude and longitude subdivisions. Orientation may be flipped
// afterwards for cavity shells.
//
// The facet stream is bit-identical to sphereShellReference (property
// tested); this version computes each ring's trig once, emits into an
// exactly-sized triangle buffer, and pools its scratch.
func SphereShell(name, body string, center geom.Vec3, radius float64, latSeg, lonSeg int) Shell {
	if latSeg < 2 {
		latSeg = 2
	}
	if lonSeg < 3 {
		lonSeg = 3
	}
	tt := trigPool.Get().(*trigTables)
	defer trigPool.Put(tt)
	tt.st = growF(tt.st, latSeg+1)
	tt.ct = growF(tt.ct, latSeg+1)
	for i := 0; i <= latSeg; i++ {
		theta := math.Pi * float64(i) / float64(latSeg) // 0..pi from +Z
		tt.st[i] = math.Sin(theta)
		tt.ct[i] = math.Cos(theta)
	}
	// The j == lonSeg column is phi = 2*pi, whose sin/cos are not the
	// float values of phi = 0; keeping a full extra column reproduces the
	// reference's wrap-around points exactly.
	tt.sp = growF(tt.sp, lonSeg+1)
	tt.cp = growF(tt.cp, lonSeg+1)
	for j := 0; j <= lonSeg; j++ {
		phi := 2 * math.Pi * float64(j) / float64(lonSeg)
		tt.sp[j] = math.Sin(phi)
		tt.cp[j] = math.Cos(phi)
	}
	point := func(i, j int) geom.Vec3 {
		return geom.Vec3{
			X: center.X + radius*tt.st[i]*tt.cp[j],
			Y: center.Y + radius*tt.st[i]*tt.sp[j],
			Z: center.Z + radius*tt.ct[i],
		}
	}
	// Every row emits 2 triangles per longitude segment except the two
	// polar rows, which emit 1.
	s := Shell{Name: name, Body: body, Orient: Outward,
		Tris: make([]geom.Triangle, 0, 2*lonSeg*(latSeg-1))}
	for i := 0; i < latSeg; i++ {
		for j := 0; j < lonSeg; j++ {
			p00 := point(i, j)
			p01 := point(i, j+1)
			p10 := point(i+1, j)
			p11 := point(i+1, j+1)
			if i > 0 { // skip degenerate cap triangles at the north pole
				s.Tris = append(s.Tris, geom.Triangle{A: p00, B: p10, C: p01})
			}
			if i < latSeg-1 { // skip south pole degenerates
				s.Tris = append(s.Tris, geom.Triangle{A: p01, B: p10, C: p11})
			}
		}
	}
	return s
}
