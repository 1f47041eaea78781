package slicer

import (
	"fmt"
	"math"
	"sort"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

// This file keeps the pre-index slicer kernels as unexported reference
// implementations. They are the plain O(layers * triangles) rescan,
// O(rows * edges) scanline and all-edges interface probe versions the
// indexed kernels must match byte-for-byte; the equivalence property
// tests in property_test.go deep-compare the two on randomized meshes and
// on the paper's golden parts. probe_test.go checks the interface probe's
// edge index on hand-built layers. The fill rule below (Layer.Material
// and the contour windings it sums) is the scan both probe oracles and
// the Table 3 tests classify points with.

// winding returns contour c's winding number around p: zero for an open
// chain, and zero when p lies outside the loop's bounding box. In exact
// arithmetic the box test changes nothing. In float it settles the point
// an ulp off a boundary, where a rounded cross product can read ±1: the
// box says outside, and the slicer has always taken the box's word.
func (c *Contour) winding(p geom.Vec2) int {
	if !c.Closed || !c.Poly.Bounds().ContainsPoint(p) {
		return 0
	}
	w, n := 0, len(c.Poly)
	for i := range c.Poly {
		w += geom.WindingStep(c.Poly[i], c.Poly[(i+1)%n], p)
	}
	return w
}

// SignedWinding returns the summed winding number of every closed contour
// around p. Outward shells contribute positively around material, cavity
// and reversed-surface shells negatively.
func (l *Layer) SignedWinding(p geom.Vec2) int {
	w := 0
	for i := range l.Contours {
		w += l.Contours[i].winding(p)
	}
	return w
}

// Material reports whether point p receives model material under the
// slicer's fill rule: signed winding positive and odd. This single rule
// reproduces the paper's observations:
//
//   - plain solid: w=1 -> material;
//   - sphere embedded without removal (solid or surface): |w| even inside
//     the sphere -> no material (support fills it, Table 3 rows 1-2);
//   - removal + solid sphere: w=1 -> material (Table 3 row 3);
//   - removal + surface sphere: w=-1 -> no material (Table 3 row 4);
//   - the doubly-covered slivers where two split bodies overlap: w=2 ->
//     void micro-band along the spline (Fig. 4/8 mechanism).
func (l *Layer) Material(p geom.Vec2) bool {
	w := l.SignedWinding(p)
	return w > 0 && w%2 == 1
}

// BodyWinding returns the winding number of one body's own closed
// contours around p.
func (l *Layer) BodyWinding(body string, p geom.Vec2) int {
	w := 0
	for i := range l.Contours {
		if c := &l.Contours[i]; c.Body == body {
			w += c.winding(p)
		}
	}
	return w
}

// sliceNaive is the serial full-rescan slicer: SliceIndexedCtx without
// the sweep index, the scratch pool, or the worker fan-out.
func sliceNaive(m *mesh.Mesh, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	bounds := m.Bounds()
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("slicer: empty mesh")
	}
	res := &Result{Opts: opts, Bounds: bounds}
	bodySet := map[string]bool{}
	for _, s := range m.Shells {
		bodySet[s.Body] = true
	}
	for b := range bodySet {
		res.BodyNames = append(res.BodyNames, b)
	}
	sort.Strings(res.BodyNames)

	nLayers := int(math.Ceil((bounds.Max.Z - bounds.Min.Z) / opts.LayerHeight))
	if nLayers <= 0 {
		nLayers = 1
	}
	if nLayers > 100000 {
		return nil, fmt.Errorf("slicer: %d layers exceed sanity limit (layer height %g)",
			nLayers, opts.LayerHeight)
	}
	res.Layers = make([]Layer, nLayers)
	for i := 0; i < nLayers; i++ {
		z := bounds.Min.Z + (float64(i)+0.5)*opts.LayerHeight
		layer := Layer{Index: i, Z: z}
		for si := range m.Shells {
			shell := &m.Shells[si]
			layer.Contours = append(layer.Contours, sliceShellNaive(shell, z, opts)...)
		}
		layer.Interfaces = findInterfacesNaive(&layer, opts)
		res.Layers[i] = layer
	}
	return res, nil
}

// findInterfacesNaive probes each pair of bodies with the original
// brute-force boundary scans.
func findInterfacesNaive(l *Layer, opts Options) []BodyInterface {
	bodies := l.Bodies()
	var out []BodyInterface
	for i := 0; i < len(bodies); i++ {
		for j := i + 1; j < len(bodies); j++ {
			bi := probeInterfaceNaive(l, bodies[i], bodies[j], opts)
			if len(bi.Samples) > 0 {
				out = append(out, bi)
			}
		}
	}
	return out
}

// probeInterfaceNaive is the original interface probe: every sample scans
// every edge of body B's boundary twice (nearest distance, then offset),
// with no range bound and no bounding-box pruning.
func probeInterfaceNaive(l *Layer, a, b string, opts Options) BodyInterface {
	bi := BodyInterface{BodyA: a, BodyB: b}
	var bLoops []geom.Polygon
	for _, c := range l.Contours {
		if c.Closed && c.Body == b {
			bLoops = append(bLoops, c.Poly)
		}
	}
	if len(bLoops) == 0 {
		return bi
	}
	// nearestOnB returns the distance from p to B's boundary and the unit
	// tangent of the nearest boundary segment.
	nearestOnB := func(p geom.Vec2) (float64, geom.Vec2) {
		best := math.Inf(1)
		var tangent geom.Vec2
		for _, lp := range bLoops {
			n := len(lp)
			for i := 0; i < n; i++ {
				s := geom.Segment2{A: lp[i], B: lp[(i+1)%n]}
				if d := s.Dist(p); d < best {
					best = d
					tangent = s.B.Sub(s.A).Normalized()
				}
			}
		}
		return best, tangent
	}
	// Probe along body A's boundary at road-width/4 spacing. A probe
	// counts as an interface sample only when the offset to B is mostly
	// normal to both boundaries: that selects genuine seam geometry and
	// rejects collinear continuations (e.g. the shared end-cap edges
	// where a split curve terminates).
	step := opts.RoadWidth / 4
	for _, c := range l.Contours {
		if !c.Closed || c.Body != a {
			continue
		}
		n := len(c.Poly)
		for i := 0; i < n; i++ {
			p0 := c.Poly[i]
			p1 := c.Poly[(i+1)%n]
			segLen := p0.Dist(p1)
			tA := p1.Sub(p0).Normalized()
			steps := int(segLen/step) + 1
			for k := 0; k < steps; k++ {
				p := p0.Lerp(p1, (float64(k)+0.5)/float64(steps))
				d, tB := nearestOnB(p)
				if d > opts.InterfaceRange {
					continue
				}
				if d > nearTol {
					if math.Abs(tA.Dot(tB)) < 0.7 {
						continue // boundaries not locally parallel
					}
					// The offset must be mostly normal to B's boundary.
					off := offsetToBoundary(p, bLoops)
					if off.Len() > 0 && math.Abs(off.Normalized().Dot(tB)) > 0.5 {
						continue // offset runs along B's boundary
					}
					// The space between the boundaries must be a genuine
					// void (gap or doubly-covered sliver), not material
					// of a third body lying between A and B.
					if l.Material(p.Add(off.Scale(0.5))) {
						continue
					}
				}
				bi.Samples = append(bi.Samples, InterfaceSample{
					P:       p,
					Width:   d,
					Overlap: l.BodyWinding(b, p) > 0,
				})
				bi.Length += segLen / float64(steps)
			}
		}
	}
	if len(bi.Samples) > 0 {
		bi.Crossings = countCrossingsNaive(l, a, b)
	}
	return bi
}

// offsetToBoundary returns the vector from p to the nearest point on any
// of the loops.
func offsetToBoundary(p geom.Vec2, loops []geom.Polygon) geom.Vec2 {
	best := math.Inf(1)
	var q geom.Vec2
	for _, lp := range loops {
		n := len(lp)
		for i := 0; i < n; i++ {
			s := geom.Segment2{A: lp[i], B: lp[(i+1)%n]}
			c := s.ClosestPoint(p)
			if d := c.Dist(p); d < best {
				best = d
				q = c
			}
		}
	}
	return q.Sub(p)
}

// countCrossingsNaive counts proper boundary intersections between the two
// bodies' contours with edge-level bounding-box rejection only.
func countCrossingsNaive(l *Layer, a, b string) int {
	type edge struct {
		s          geom.Segment2
		minX, maxX float64
		minY, maxY float64
	}
	collect := func(body string) []edge {
		var out []edge
		for _, c := range l.Contours {
			if !c.Closed || c.Body != body {
				continue
			}
			n := len(c.Poly)
			for i := 0; i < n; i++ {
				s := geom.Segment2{A: c.Poly[i], B: c.Poly[(i+1)%n]}
				out = append(out, edge{
					s:    s,
					minX: math.Min(s.A.X, s.B.X), maxX: math.Max(s.A.X, s.B.X),
					minY: math.Min(s.A.Y, s.B.Y), maxY: math.Max(s.A.Y, s.B.Y),
				})
			}
		}
		return out
	}
	ea := collect(a)
	eb := collect(b)
	count := 0
	for _, x := range ea {
		for _, y := range eb {
			if x.maxX < y.minX || y.maxX < x.minX || x.maxY < y.minY || y.maxY < x.minY {
				continue
			}
			if x.s.ProperlyIntersects(y.s) {
				count++
			}
		}
	}
	return count
}

// sliceShellNaive intersects every triangle of the shell with the plane z
// and chains the directed segments into contours, using the original
// map-of-slices snap grid whose take() walk rescans consumed entries.
func sliceShellNaive(s *mesh.Shell, z float64, opts Options) []Contour {
	type seg struct{ a, b geom.Vec2 }
	var segs []seg
	for _, t := range s.Tris {
		p, q, ok := t.IntersectPlaneZ(z)
		if !ok {
			continue
		}
		a, b := p.XY(), q.XY()
		if a.Eq(b, opts.SnapTol/4) {
			continue
		}
		// Orient the segment so that material lies to its left:
		// direction = z-hat x facet normal.
		n := t.Normal()
		dir := geom.V2(-n.Y, n.X)
		if b.Sub(a).Dot(dir) < 0 {
			a, b = b, a
		}
		segs = append(segs, seg{a, b})
	}
	if len(segs) == 0 {
		return nil
	}

	// Chain segments end-to-start using a snap grid.
	quant := func(p geom.Vec2) [2]int64 {
		return [2]int64{
			int64(math.Round(p.X / opts.SnapTol)),
			int64(math.Round(p.Y / opts.SnapTol)),
		}
	}
	starts := make(map[[2]int64][]int)
	for i, sg := range segs {
		k := quant(sg.a)
		starts[k] = append(starts[k], i)
	}
	used := make([]bool, len(segs))
	take := func(p geom.Vec2) int {
		k := quant(p)
		// Check the snap cell and its 8 neighbours to be robust at cell
		// boundaries.
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, i := range starts[[2]int64{k[0] + dx, k[1] + dy}] {
					if !used[i] && segs[i].a.Eq(p, opts.SnapTol) {
						return i
					}
				}
			}
		}
		return -1
	}

	var contours []Contour
	for i := range segs {
		if used[i] {
			continue
		}
		used[i] = true
		loop := geom.Polygon{segs[i].a, segs[i].b}
		closed := false
		for {
			next := take(loop[len(loop)-1])
			if next == -1 {
				break
			}
			used[next] = true
			if segs[next].b.Eq(loop[0], opts.SnapTol) {
				closed = true
				break
			}
			loop = append(loop, segs[next].b)
		}
		loop = loop.Simplify(opts.SnapTol / 2)
		if len(loop) < 3 || loop.Area() < opts.MinContourArea {
			continue
		}
		contours = append(contours, Contour{
			Poly:   loop,
			Shell:  s.Name,
			Body:   s.Body,
			Orient: s.Orient,
			Closed: closed,
		})
	}
	return contours
}

// rasterizeNaive is the original scanline rasterizer: every row rescans
// every contour edge and allocates its own crossing and winding buffers.
func rasterizeNaive(l *Layer, min, max geom.Vec2, cell float64, bodies []string) (*Raster, error) {
	if cell <= 0 {
		return nil, fmt.Errorf("slicer: cell size must be positive, got %g", cell)
	}
	nx := int(math.Ceil((max.X - min.X) / cell))
	ny := int(math.Ceil((max.Y - min.Y) / cell))
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("slicer: empty raster bounds")
	}
	if nx*ny > 50_000_000 {
		return nil, fmt.Errorf("slicer: raster %dx%d exceeds sanity limit", nx, ny)
	}
	bodyBit := make(map[string]int, len(bodies))
	for i, b := range bodies {
		if i >= 32 {
			return nil, fmt.Errorf("slicer: more than 32 bodies not supported")
		}
		bodyBit[b] = i
	}
	r := &Raster{
		Origin: min,
		Cell:   cell,
		NX:     nx,
		NY:     ny,
		Class:  make([]CellClass, nx*ny),
		Owner:  make([]uint32, nx*ny),
		Bodies: bodies,
	}

	type naiveCrossing struct {
		x     float64
		delta int
		body  int
	}
	var crossings []naiveCrossing
	for iy := 0; iy < ny; iy++ {
		y := min.Y + (float64(iy)+0.5)*cell
		crossings = crossings[:0]
		for _, c := range l.Contours {
			if !c.Closed {
				continue
			}
			bit, okBody := bodyBit[c.Body]
			if !okBody {
				bit = -1
			}
			n := len(c.Poly)
			for i := 0; i < n; i++ {
				a := c.Poly[i]
				b := c.Poly[(i+1)%n]
				// Half-open rule [minY, maxY) avoids double counting at
				// shared vertices.
				if (a.Y <= y) == (b.Y <= y) {
					continue
				}
				t := (y - a.Y) / (b.Y - a.Y)
				x := a.X + t*(b.X-a.X)
				delta := 1
				if b.Y > a.Y {
					delta = -1 // upward edge closes the winding to its right
				}
				crossings = append(crossings, naiveCrossing{x: x, delta: delta, body: bit})
			}
		}
		sort.Slice(crossings, func(i, j int) bool { return crossings[i].x < crossings[j].x })

		w := 0
		bodyW := make([]int, len(bodies))
		ci := 0
		for ix := 0; ix < nx; ix++ {
			xc := min.X + (float64(ix)+0.5)*cell
			for ci < len(crossings) && crossings[ci].x <= xc {
				w += crossings[ci].delta
				if crossings[ci].body >= 0 {
					bodyW[crossings[ci].body] += crossings[ci].delta
				}
				ci++
			}
			idx := iy*nx + ix
			var owner uint32
			for bi, bw := range bodyW {
				if bw > 0 && bw%2 == 1 {
					owner |= 1 << uint(bi)
				}
			}
			r.Owner[idx] = owner
			switch {
			case w > 0 && w%2 == 1:
				r.Class[idx] = Model
			case w != 0 || owner != 0:
				r.Class[idx] = Void
			default:
				r.Class[idx] = Empty
			}
		}
	}
	return r, nil
}
