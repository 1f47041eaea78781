package slicer

import (
	"math"
	"slices"
	"sort"
	"sync"

	"obfuscade/internal/geom"
)

// Bodies returns the sorted body names present (with closed contours) in
// this layer.
func (l *Layer) Bodies() []string {
	set := map[string]bool{}
	for _, c := range l.Contours {
		if c.Closed {
			set[c.Body] = true
		}
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// InterfaceSample is one probe of the void band between two bodies.
type InterfaceSample struct {
	// P is the probe location on body A's boundary.
	P geom.Vec2
	// Width is the local void width: the distance to body B's boundary.
	// Gap and doubly-covered (overlap) slivers are both voids under the
	// odd-winding fill rule; Overlap distinguishes them.
	Width float64
	// Overlap is true when the probe point lies inside body B (the
	// bodies doubly cover the sliver) and false when it lies outside
	// (open gap).
	Overlap bool
}

// BodyInterface summarises where two bodies meet within one layer.
type BodyInterface struct {
	// BodyA and BodyB are the two body names, BodyA < BodyB.
	BodyA, BodyB string
	// Samples are probes along the interface.
	Samples []InterfaceSample
	// Length is the approximate interface arc length in this layer.
	Length float64
	// Crossings counts proper intersections between the two bodies'
	// contour boundaries. Zero with a non-empty interface means the
	// bodies are fully separated in this layer — the per-layer
	// discontinuity of paper Fig. 7a. Interleaved tessellation mismatch
	// (x-y orientation) yields many crossings in every layer, which is
	// why the x-y sliced model never shows a discontinuity.
	Crossings int
}

// MaxWidth returns the widest void probe of the interface.
func (bi *BodyInterface) MaxWidth() float64 {
	var w float64
	for _, s := range bi.Samples {
		if s.Width > w {
			w = s.Width
		}
	}
	return w
}

// findInterfaces probes each pair of bodies in the layer for near-contact
// regions. The probes run against an edge index built once per layer,
// and only when there is a pair to probe.
func findInterfaces(l *Layer, opts Options) []BodyInterface {
	bodies := l.Bodies()
	if len(bodies) < 2 {
		return nil
	}
	px := probeIndexPool.Get().(*probeIndex)
	defer probeIndexPool.Put(px)
	px.build(l, bodies, opts)
	var out []BodyInterface
	for i := 0; i < len(bodies); i++ {
		for j := i + 1; j < len(bodies); j++ {
			bi := px.probeInterface(bodies[i], bodies[j], &px.bodies[i], &px.bodies[j], opts)
			if len(bi.Samples) > 0 {
				out = append(out, bi)
			}
		}
	}
	return out
}

// nearTol is the probe distance below which the perpendicularity filters
// are skipped: offsets this small have numerically meaningless direction.
const nearTol = 0.02

// probeEdge is one closed-contour edge with its bounding box and the
// number of its loop within the body.
type probeEdge struct {
	a, b   geom.Vec2
	bounds geom.Bounds2
	loop   int32
}

// probeIndex answers the interface probe's three queries (nearest edge,
// winding number, crossing count) for one layer, bit for bit as the full
// scans over the layer's contours answer them. It holds every closed
// contour edge of every body, numbered per body in contour-then-edge
// order (the scans' order), and buckets them twice on one grid shared by
// all bodies:
//
//   - By square cell, of side InterfaceRange. An edge is registered in
//     every cell its segment passes within slack of. Slack is far above
//     float rounding and far below a cell, so an edge with a point within
//     InterfaceRange of p lies in a cell that the query box
//     p ± (InterfaceRange + slack) reaches, and two edges that
//     ProperlyIntersects can report crossing share a cell.
//   - By y-row, of height cell/8. An edge changes a winding number only when
//     min.Y <= q.Y < max.Y, and the bin function is monotone, so q's row
//     holds every edge that counts. The filter uses only comparisons, so
//     the sum is exact.
//
// The index is rebuilt per layer from pooled scratch and never stored in
// the Layer, so a sliced Result carries no trace of it.
type probeIndex struct {
	x0, y0         float64 // grid origin: the minimum corner of all edge boxes
	cell, rowH     float64 // cell side and row height
	invCell, invRH float64 // their reciprocals, for bin
	nx, ny         int     // cells per axis
	nRows          int
	slack          float64
	bodies         []bodyEdges // parallel to Layer.Bodies()
	cursor         []int32     // fill cursors for the bucket arenas
	cand           []int32     // nearestInOrder's candidates
	stamp          []int32     // per B edge: 1 + the last A edge paired with it
}

// bodyEdges is one body's part of the probe index, in arena form: edge e
// is registered in cells edgeCells[edgeOff[e]:edgeOff[e+1]], cell c lists
// edges cellEdges[cellOff[c]:cellOff[c+1]] and row r lists edges
// rowEdges[rowOff[r]:rowOff[r+1]], each list ascending.
type bodyEdges struct {
	edges              []probeEdge
	loops              []geom.Bounds2 // per loop: Poly.Bounds()
	bounds             geom.Bounds2   // union of the loop boxes
	edgeOff, edgeCells []int32
	cellOff, cellEdges []int32
	rowOff, rowEdges   []int32
}

var probeIndexPool = sync.Pool{New: func() any { return new(probeIndex) }}

// Grid size caps. Past them the cells or rows grow: any positive size
// keeps the queries exact, a larger one only adds candidates.
const (
	minGridCells = 256
	maxGridRows  = 1 << 14
)

// bin returns floor((v-o)*inv) clamped to [0, n): the bin of v for bins
// of size 1/inv from o. It is monotone in v, so the bins of an interval's
// ends bracket the bin of every point inside it. NaN lands in bin 0.
func bin(v, o, inv float64, n int) int {
	f := math.Floor((v - o) * inv)
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

// build indexes the closed contours of l. bodies is l.Bodies().
func (px *probeIndex) build(l *Layer, bodies []string, opts Options) {
	if cap(px.bodies) < len(bodies) {
		px.bodies = append(px.bodies[:cap(px.bodies)], make([]bodyEdges, len(bodies)-cap(px.bodies))...)
	}
	px.bodies = px.bodies[:len(bodies)]
	inf := math.Inf(1)
	empty := geom.Bounds2{Min: geom.V2(inf, inf), Max: geom.V2(-inf, -inf)}
	for k := range px.bodies {
		px.bodies[k].edges = px.bodies[k].edges[:0]
		px.bodies[k].loops = px.bodies[k].loops[:0]
		px.bodies[k].bounds = empty
	}
	ext := empty
	total := 0
	for i := range l.Contours {
		c := &l.Contours[i]
		if !c.Closed {
			continue
		}
		be := &px.bodies[sort.SearchStrings(bodies, c.Body)]
		loop := int32(len(be.loops))
		lb := c.Poly.Bounds()
		be.loops = append(be.loops, lb)
		be.bounds = union(be.bounds, lb)
		n := len(c.Poly)
		for j := 0; j < n; j++ {
			a, b := c.Poly[j], c.Poly[(j+1)%n]
			e := probeEdge{a: a, b: b, loop: loop, bounds: geom.Bounds2{
				Min: geom.V2(math.Min(a.X, b.X), math.Min(a.Y, b.Y)),
				Max: geom.V2(math.Max(a.X, b.X), math.Max(a.Y, b.Y)),
			}}
			be.edges = append(be.edges, e)
		}
		total += n
	}
	for k := range px.bodies {
		ext = union(ext, px.bodies[k].bounds)
	}
	px.layout(ext, opts.InterfaceRange, total)
	for k := range px.bodies {
		px.bucket(&px.bodies[k])
	}
}

func union(a, b geom.Bounds2) geom.Bounds2 {
	return geom.Bounds2{
		Min: geom.V2(math.Min(a.Min.X, b.Min.X), math.Min(a.Min.Y, b.Min.Y)),
		Max: geom.V2(math.Max(a.Max.X, b.Max.X), math.Max(a.Max.Y, b.Max.Y)),
	}
}

// layout sizes the shared grid over the edge extent ext.
func (px *probeIndex) layout(ext geom.Bounds2, side float64, edges int) {
	w, h := ext.Max.X-ext.Min.X, ext.Max.Y-ext.Min.Y
	px.x0, px.y0 = ext.Min.X, ext.Min.Y
	if math.IsNaN(w+h) || math.IsInf(w+h, 0) {
		// Non-finite coordinates: one cell and one row, a full scan.
		px.cell, px.rowH, px.nx, px.ny, px.nRows, px.slack = 1, 1, 1, 1, 1, 0
		px.invCell, px.invRH = 1, 1
		return
	}
	scale := math.Max(math.Max(math.Abs(ext.Min.X), math.Abs(ext.Max.X)),
		math.Max(math.Abs(ext.Min.Y), math.Abs(ext.Max.Y)))
	if !(side > 0) || math.IsInf(side, 0) {
		side = math.Max(math.Max(w, h), 1)
	}
	// A floor keeps side/8 and the reciprocals finite and nonzero.
	side = math.Max(side, (scale+1)*1e-9)
	maxCells := float64(max(minGridCells, 4*edges))
	cells := func(s float64) float64 { return (math.Floor(w/s) + 1) * (math.Floor(h/s) + 1) }
	if f := cells(side); f > maxCells {
		side *= math.Sqrt(f / maxCells)
	}
	for cells(side) > maxCells {
		side *= 2
	}
	px.cell = side
	px.nx, px.ny = int(w/side)+1, int(h/side)+1
	px.rowH = side / 8
	for math.Floor(h/px.rowH)+1 > maxGridRows {
		px.rowH *= 2
	}
	px.nRows = int(h/px.rowH) + 1
	px.invCell, px.invRH = 1/px.cell, 1/px.rowH
	px.slack = side/64 + scale*1e-12
}

// appendCells appends the cells edge e is registered in. A segment that
// spans several columns and rows registers, per column, only the rows its
// own y-range there reaches, not its whole bounding box.
func (px *probeIndex) appendCells(dst []int32, e *probeEdge) []int32 {
	s := px.slack
	cx0 := bin(e.bounds.Min.X-s, px.x0, px.invCell, px.nx)
	cx1 := bin(e.bounds.Max.X+s, px.x0, px.invCell, px.nx)
	cy0 := bin(e.bounds.Min.Y-s, px.y0, px.invCell, px.ny)
	cy1 := bin(e.bounds.Max.Y+s, px.y0, px.invCell, px.ny)
	if cx0 == cx1 || cy0 == cy1 {
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				dst = append(dst, int32(cy*px.nx+cx))
			}
		}
		return dst
	}
	dx, dy := e.b.X-e.a.X, e.b.Y-e.a.Y
	yAt := func(x float64) float64 {
		return e.a.Y + geom.Clamp((x-e.a.X)/dx, 0, 1)*dy
	}
	for cx := cx0; cx <= cx1; cx++ {
		ylo, yhi := e.bounds.Min.Y, e.bounds.Max.Y
		if dx != 0 {
			xl := geom.Clamp(px.x0+float64(cx)*px.cell-s, e.bounds.Min.X, e.bounds.Max.X)
			xr := geom.Clamp(px.x0+float64(cx+1)*px.cell+s, e.bounds.Min.X, e.bounds.Max.X)
			ylo, yhi = yAt(xl), yAt(xr)
			if ylo > yhi {
				ylo, yhi = yhi, ylo
			}
		}
		lo := max(cy0, bin(ylo-s, px.y0, px.invCell, px.ny))
		hi := min(cy1, bin(yhi+s, px.y0, px.invCell, px.ny))
		for cy := lo; cy <= hi; cy++ {
			dst = append(dst, int32(cy*px.nx+cx))
		}
	}
	return dst
}

// bucket fills one body's cell and row arenas.
func (px *probeIndex) bucket(be *bodyEdges) {
	nCells := px.nx * px.ny
	be.edgeOff = grow(be.edgeOff, len(be.edges)+1)
	be.edgeCells = be.edgeCells[:0]
	for i := range be.edges {
		be.edgeOff[i] = int32(len(be.edgeCells))
		be.edgeCells = px.appendCells(be.edgeCells, &be.edges[i])
	}
	be.edgeOff[len(be.edges)] = int32(len(be.edgeCells))

	be.cellOff = grow(be.cellOff, nCells+1)
	clear(be.cellOff)
	for _, c := range be.edgeCells {
		be.cellOff[c+1]++
	}
	for c := 0; c < nCells; c++ {
		be.cellOff[c+1] += be.cellOff[c]
	}
	be.cellEdges = grow(be.cellEdges, len(be.edgeCells))
	px.cursor = grow(px.cursor, nCells)
	copy(px.cursor, be.cellOff)
	for i := range be.edges {
		for _, c := range be.edgeCells[be.edgeOff[i]:be.edgeOff[i+1]] {
			be.cellEdges[px.cursor[c]] = int32(i)
			px.cursor[c]++
		}
	}

	// Horizontal edges never change a winding number; they get no row.
	be.rowOff = grow(be.rowOff, px.nRows+1)
	clear(be.rowOff)
	for i := range be.edges {
		e := &be.edges[i]
		if e.a.Y == e.b.Y {
			continue
		}
		for r := px.row(e.bounds.Min.Y); r <= px.row(e.bounds.Max.Y); r++ {
			be.rowOff[r+1]++
		}
	}
	for r := 0; r < px.nRows; r++ {
		be.rowOff[r+1] += be.rowOff[r]
	}
	be.rowEdges = grow(be.rowEdges, int(be.rowOff[px.nRows]))
	px.cursor = grow(px.cursor, px.nRows)
	copy(px.cursor, be.rowOff)
	for i := range be.edges {
		e := &be.edges[i]
		if e.a.Y == e.b.Y {
			continue
		}
		for r := px.row(e.bounds.Min.Y); r <= px.row(e.bounds.Max.Y); r++ {
			be.rowEdges[px.cursor[r]] = int32(i)
			px.cursor[r]++
		}
	}
}

func (px *probeIndex) row(y float64) int { return bin(y, px.y0, px.invRH, px.nRows) }

// nearest returns the edge of be closest to p within the interface
// range, and the closest point on it; -1 when no edge is. The winner is
// the one the full in-order scan picks: edges in scan order, each skipped
// when its box's DistSq is >= the best squared distance so far, the best
// replaced only by a strict improvement, starting one ulp above rangeSq
// (sentinel). reach is the query half-width, InterfaceRange plus slack:
// an edge outside the cells it covers is farther than InterfaceRange, so
// it never improves on the sentinel.
//
// The candidates are visited in cell order, keeping the smallest
// (squared distance, edge number) W. The in-order scan reaches W with a
// best above dsq(W), since every earlier edge is farther, and nothing
// after W improves on it; so it picks W too whenever W's box does not
// exceed dsq(W). In float it can: a Lerp'd closest point can fall an ulp
// outside its edge's box. Then the box prune may skip W, and the replay
// in nearestInOrder decides.
func (px *probeIndex) nearest(be *bodyEdges, p geom.Vec2, reach, sentinel float64) (int, geom.Vec2) {
	if be.bounds.DistSq(p) >= sentinel {
		return -1, geom.Vec2{} // every edge box is at least as far
	}
	best, win := sentinel, -1
	var closest geom.Vec2
	cx0, cx1 := bin(p.X-reach, px.x0, px.invCell, px.nx), bin(p.X+reach, px.x0, px.invCell, px.nx)
	cy0, cy1 := bin(p.Y-reach, px.y0, px.invCell, px.ny), bin(p.Y+reach, px.y0, px.invCell, px.ny)
	for cy := cy0; cy <= cy1; cy++ {
		for c := cy*px.nx + cx0; c <= cy*px.nx+cx1; c++ {
			for _, ei := range be.cellEdges[be.cellOff[c]:be.cellOff[c+1]] {
				e := &be.edges[ei]
				if e.bounds.DistSq(p) >= sentinel {
					continue // the scan never examines it
				}
				q := closestOnEdge(e, p)
				if dsq := q.DistSq(p); dsq < best || (dsq == best && int(ei) < win) {
					best, win, closest = dsq, int(ei), q
				}
			}
		}
	}
	if win >= 0 && be.edges[win].bounds.DistSq(p) > best {
		return px.nearestInOrder(be, p, cx0, cx1, cy0, cy1, sentinel)
	}
	return win, closest
}

// nearestInOrder replays the in-order scan over the candidates of cells
// [cx0, cx1] x [cy0, cy1], sorted into edge order.
func (px *probeIndex) nearestInOrder(be *bodyEdges, p geom.Vec2, cx0, cx1, cy0, cy1 int, sentinel float64) (int, geom.Vec2) {
	cand := px.cand[:0]
	for cy := cy0; cy <= cy1; cy++ {
		for c := cy*px.nx + cx0; c <= cy*px.nx+cx1; c++ {
			cand = append(cand, be.cellEdges[be.cellOff[c]:be.cellOff[c+1]]...)
		}
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	px.cand = cand
	best, win := sentinel, -1
	var closest geom.Vec2
	for _, ei := range cand {
		e := &be.edges[ei]
		if e.bounds.DistSq(p) >= best {
			continue
		}
		q := closestOnEdge(e, p)
		if dsq := q.DistSq(p); dsq < best {
			best, win, closest = dsq, int(ei), q
		}
	}
	return win, closest
}

// closestOnEdge returns the point of e closest to p, computed as
// Segment2.ClosestPoint does.
func closestOnEdge(e *probeEdge, p geom.Vec2) geom.Vec2 {
	d := e.b.Sub(e.a)
	t := 0.0
	if ll := d.LenSq(); ll != 0 {
		t = geom.Clamp(p.Sub(e.a).Dot(d)/ll, 0, 1)
	}
	return e.a.Lerp(e.b, t)
}

// winding returns the winding number of be's contours around q, as a
// scan of the body's closed contours counts it: a loop whose box excludes
// q adds nothing.
func (px *probeIndex) winding(be *bodyEdges, q geom.Vec2) int {
	r := px.row(q.Y)
	w := 0
	for _, ei := range be.rowEdges[be.rowOff[r]:be.rowOff[r+1]] {
		e := &be.edges[ei]
		if be.loops[e.loop].ContainsPoint(q) {
			w += geom.WindingStep(e.a, e.b, q)
		}
	}
	return w
}

// material is the slicer's fill rule (signed winding positive and odd)
// answered from the index: every closed contour belongs to one of the
// indexed bodies.
func (px *probeIndex) material(q geom.Vec2) bool {
	w := 0
	for k := range px.bodies {
		w += px.winding(&px.bodies[k], q)
	}
	return w > 0 && w%2 == 1
}

// probeInterface probes body A's boundary for void bands against body
// B's. ea and eb are the two bodies' parts of the index.
func (px *probeIndex) probeInterface(a, b string, ea, eb *bodyEdges, opts Options) BodyInterface {
	bi := BodyInterface{BodyA: a, BodyB: b}
	// The nearest-edge search is bounded at the interface range: probes
	// farther than that are discarded regardless of the exact distance,
	// so the bound starts one ulp above rangeSq and "none found" means
	// "beyond range". Any squared distance > rangeSq is >= that sentinel
	// (no float lies between), so the bound changes no in-range answer.
	rangeSq := opts.InterfaceRange * opts.InterfaceRange
	sentinel := math.Nextafter(rangeSq, math.Inf(1))
	reach := math.Abs(opts.InterfaceRange) + px.slack
	// Probe along body A's boundary at road-width/4 spacing. A probe
	// counts as an interface sample only when the offset to B is mostly
	// normal to both boundaries: that selects genuine seam geometry and
	// rejects collinear continuations (e.g. the shared end-cap edges
	// where a split curve terminates).
	step := opts.RoadWidth / 4
	for i := range ea.edges {
		p0, p1 := ea.edges[i].a, ea.edges[i].b
		segLen := p0.Dist(p1)
		tA := p1.Sub(p0).Normalized()
		steps := int(segLen/step) + 1
		for k := 0; k < steps; k++ {
			p := p0.Lerp(p1, (float64(k)+0.5)/float64(steps))
			d := math.Inf(1)
			var tB, q geom.Vec2
			if j, c := px.nearest(eb, p, reach, sentinel); j >= 0 {
				// Hypot, not sqrt(dsq): bit-compatible with the reference
				// scan's Segment2.Dist.
				d, tB, q = c.Dist(p), eb.edges[j].b.Sub(eb.edges[j].a).Normalized(), c
			}
			if d > opts.InterfaceRange {
				continue
			}
			if d > nearTol {
				if math.Abs(tA.Dot(tB)) < 0.7 {
					continue // boundaries not locally parallel
				}
				// The offset must be mostly normal to B's boundary.
				off := q.Sub(p)
				if off.Len() > 0 && math.Abs(off.Normalized().Dot(tB)) > 0.5 {
					continue // offset runs along B's boundary
				}
				// The space between the boundaries must be a genuine
				// void (gap or doubly-covered sliver), not material
				// of a third body lying between A and B.
				if px.material(p.Add(off.Scale(0.5))) {
					continue
				}
			}
			bi.Samples = append(bi.Samples, InterfaceSample{
				P:       p,
				Width:   d,
				Overlap: px.winding(eb, p) > 0,
			})
			bi.Length += segLen / float64(steps)
		}
	}
	if len(bi.Samples) > 0 {
		bi.Crossings = px.crossings(ea, eb)
	}
	return bi
}

// crossings counts proper boundary intersections between A's and B's
// edges. Two edges that cross share a cell, so each A edge is tested
// against the B edges of its own cells, each B edge once (the stamp),
// behind the same bounding-box reject as a full pairwise scan.
func (px *probeIndex) crossings(ea, eb *bodyEdges) int {
	px.stamp = grow(px.stamp, len(eb.edges))
	clear(px.stamp)
	count := 0
	for i := range ea.edges {
		x := &ea.edges[i]
		mark := int32(i + 1)
		for _, c := range ea.edgeCells[ea.edgeOff[i]:ea.edgeOff[i+1]] {
			for _, j := range eb.cellEdges[eb.cellOff[c]:eb.cellOff[c+1]] {
				if px.stamp[j] == mark {
					continue
				}
				px.stamp[j] = mark
				y := &eb.edges[j]
				if !x.bounds.Overlaps(y.bounds) {
					continue
				}
				if (geom.Segment2{A: x.a, B: x.b}).ProperlyIntersects(geom.Segment2{A: y.a, B: y.b}) {
					count++
				}
			}
		}
	}
	return count
}

// Discontinuous reports whether the two bodies form an interface in this
// layer but their boundaries never cross: the cross-sections are fully
// separated islands, the per-layer discontinuity visible in the paper's
// Fig. 7a. Interleaved tessellation mismatch (x-y orientation) produces
// crossings in every layer, so x-y slices are never discontinuous; in the
// x-z orientation the mismatch at a slice's crossing station is a pure gap
// in a large fraction of layers at every STL resolution.
func (l *Layer) Discontinuous(a, b string) bool {
	for _, bi := range l.Interfaces {
		if (bi.BodyA == a && bi.BodyB == b) || (bi.BodyA == b && bi.BodyB == a) {
			// Zero crossings with measurable separation means separated
			// islands. Zero crossings with (near-)zero width means the
			// boundaries are exactly coincident — e.g. a solid body
			// re-embedded into its cavity (§3.2.2) — which prints as
			// continuous material.
			const coincidentTol = 1e-7
			return len(bi.Samples) > 0 && bi.Crossings == 0 && bi.MaxWidth() > coincidentTol
		}
	}
	return false
}

// DiscontinuousLayerFraction returns the fraction of layers containing
// both bodies in which their regions are fully separated.
func (r *Result) DiscontinuousLayerFraction(a, b string) float64 {
	both, disc := 0, 0
	for i := range r.Layers {
		l := &r.Layers[i]
		present := 0
		for _, name := range l.Bodies() {
			if name == a || name == b {
				present++
			}
		}
		if present != 2 {
			continue
		}
		both++
		if l.Discontinuous(a, b) {
			disc++
		}
	}
	if both == 0 {
		return 0
	}
	return float64(disc) / float64(both)
}

// InterfaceStats aggregates the void-band geometry across all layers.
type InterfaceStats struct {
	// Layers is the number of layers with an interface between the pair.
	Layers int
	// MaxWidth is the largest void width found anywhere.
	MaxWidth float64
	// MeanWidth is the sample-weighted mean void width.
	MeanWidth float64
	// Area is the approximate total interface area (length x layer
	// height summed over layers), mm^2.
	Area float64
	// MeanCrossings is the average number of proper boundary crossings
	// per interface layer — the gap/overlap interleaving count of paper
	// Fig. 4's magnified views. High in x-y (the contours weave), low or
	// zero in x-z.
	MeanCrossings float64
}

// InterfaceStatsBetween aggregates interface geometry for a body pair
// over the whole sliced model.
func (r *Result) InterfaceStatsBetween(a, b string) InterfaceStats {
	var st InterfaceStats
	var widthSum float64
	var nSamples, crossings int
	for i := range r.Layers {
		for _, bi := range r.Layers[i].Interfaces {
			if !((bi.BodyA == a && bi.BodyB == b) || (bi.BodyA == b && bi.BodyB == a)) {
				continue
			}
			st.Layers++
			st.Area += bi.Length * r.Opts.LayerHeight
			crossings += bi.Crossings
			for _, s := range bi.Samples {
				widthSum += s.Width
				nSamples++
				if s.Width > st.MaxWidth {
					st.MaxWidth = s.Width
				}
			}
		}
	}
	if nSamples > 0 {
		st.MeanWidth = widthSum / float64(nSamples)
	}
	if st.Layers > 0 {
		st.MeanCrossings = float64(crossings) / float64(st.Layers)
	}
	return st
}
