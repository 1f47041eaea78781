package slicer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/parallel"
)

// Oracle tests for the interface probe's edge index, on hand-built layers
// chosen to stress its exactness arguments. findInterfaces must equal,
// field for field, the unindexed probe it replaced (probeInterfaceScan
// below), and each index query must equal the Layer method or the scan it
// stands in for.
//
// The oracle is that scan rather than probeInterfaceNaive: on such
// layers the two disagree by themselves, before any index. Where a probe
// point is nearest to a vertex of B, the two edges meeting there tie.
// The naive scan ranks edges by Hypot distance, the production scan by
// squared distance with a box prune, and an ulp decides between them
// differently; the chosen edge's tangent then decides the parallel
// filter. The mesh-based golden tests never meet such a tie.

// latticeStep is the row height under DefaultOptions (InterfaceRange/8,
// exact in binary). Vertices on multiples of it put edges and probe
// points exactly on row and cell boundaries.
const latticeStep = 0.75 / 8

// randomProbeLayer builds a layer of 2-4 bodies of random closed loops,
// plus an open chain the probe must ignore. Later bodies copy some of
// b0's vertices (shared vertices) and put vertices exactly on the points
// where a probe along b0 samples under opts. Loops may repeat a vertex
// (zero-length edge), sit on the row/cell lattice, or carry one long
// diagonal edge that crosses many cells.
func randomProbeLayer(rng *rand.Rand, opts Options) *Layer {
	l := &Layer{}
	nBodies := 2 + rng.Intn(3)
	var ref geom.Polygon
	for bi := 0; bi < nBodies; bi++ {
		body := fmt.Sprintf("b%d", bi)
		for li := 0; li < 1+rng.Intn(2); li++ {
			poly := randomLoop(rng)
			if bi > 0 && len(ref) > 0 {
				poly = borrowVertices(rng, poly, ref, opts.RoadWidth/4)
			}
			if bi == 0 && li == 0 {
				ref = poly
			}
			l.Contours = append(l.Contours, Contour{Poly: poly, Body: body, Closed: true})
		}
	}
	l.Contours = append(l.Contours, Contour{
		Poly: geom.Polygon{geom.V2(1, 1), geom.V2(2, 1.5), geom.V2(3, 1)},
		Body: "b1",
	})
	// Shuffle so bodies' contours interleave in contour order.
	rng.Shuffle(len(l.Contours), func(i, j int) { l.Contours[i], l.Contours[j] = l.Contours[j], l.Contours[i] })
	return l
}

// randomLoop returns a star-shaped loop around a random centre.
func randomLoop(rng *rand.Rand) geom.Polygon {
	c := geom.V2(2+rng.Float64()*6, 2+rng.Float64()*6)
	n := 3 + rng.Intn(40)
	r0 := 0.5 + rng.Float64()*3
	lattice := rng.Intn(3) == 0
	var poly geom.Polygon
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		r := r0 * (0.6 + 0.4*rng.Float64())
		if rng.Intn(8) == 0 {
			r = r0 * 0.05 // a deep notch: two long edges through the centre
		}
		p := c.Add(geom.V2(math.Cos(a), math.Sin(a)).Scale(r))
		if lattice {
			p = geom.V2(math.Round(p.X/latticeStep)*latticeStep, math.Round(p.Y/latticeStep)*latticeStep)
		}
		poly = append(poly, p)
		if rng.Intn(10) == 0 {
			poly = append(poly, p) // zero-length edge
		}
	}
	if rng.Intn(3) == 0 {
		// One long diagonal spanning many cells and rows.
		poly = append(poly, geom.V2(c.X+6+rng.Float64(), c.Y-5-rng.Float64()))
	}
	if rng.Intn(2) == 0 {
		poly = poly.Reversed() // a hole-like (clockwise) loop
	}
	return poly
}

// borrowVertices splices vertices of ref into poly: some of ref's
// vertices verbatim, and some of the exact points a probe along ref
// samples at the given step.
func borrowVertices(rng *rand.Rand, poly, ref geom.Polygon, step float64) geom.Polygon {
	out := append(geom.Polygon(nil), poly...)
	for k := 0; k < 1+rng.Intn(6); k++ {
		i := rng.Intn(len(ref))
		v := ref[i]
		if rng.Intn(2) == 0 {
			p0, p1 := ref[i], ref[(i+1)%len(ref)]
			steps := int(p0.Dist(p1)/step) + 1
			v = p0.Lerp(p1, (float64(rng.Intn(steps))+0.5)/float64(steps))
		}
		at := rng.Intn(len(out) + 1)
		out = append(out[:at], append(geom.Polygon{v}, out[at:]...)...)
	}
	return out
}

// probeOptions returns DefaultOptions with a random interface range,
// including ranges that shrink the cells far below the layer (so the
// grid cap grows them) and ranges wider than the whole layer.
func probeOptions(rng *rand.Rand) Options {
	opts := DefaultOptions()
	switch rng.Intn(6) {
	case 0:
		opts.InterfaceRange = 1e-4
	case 1:
		opts.InterfaceRange = 30
	case 2:
		opts.InterfaceRange = 0.05 + rng.Float64()*2
	}
	if rng.Intn(3) == 0 {
		opts.RoadWidth = 0.1 + rng.Float64()
	}
	return opts
}

func TestProbeIndexMatchesScanRandomLayers(t *testing.T) {
	const baseSeed = 0x9b0be
	// The first 400 layers, and one a 20,000-layer run found that needs
	// the per-loop box reject in the winding query: trial 6533 samples a
	// probe point an ulp outside a loop's box, where the rounded cross
	// product gives that loop a winding of 1.
	trials := []int{6533}
	for trial := 0; trial < 400; trial++ {
		trials = append(trials, trial)
	}
	for _, trial := range trials {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		opts := probeOptions(rng)
		l := randomProbeLayer(rng, opts)
		got := findInterfaces(l, opts)
		if want := findInterfacesScan(l, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (range %g): indexed interfaces differ from the scan\ngot  %+v\nwant %+v",
				trial, opts.InterfaceRange, got, want)
		}
		checkIndexQueries(t, trial, l, opts, rng)
	}
}

// findInterfacesScan is findInterfaces over probeInterfaceScan.
func findInterfacesScan(l *Layer, opts Options) []BodyInterface {
	bodies := l.Bodies()
	var out []BodyInterface
	for i := 0; i < len(bodies); i++ {
		for j := i + 1; j < len(bodies); j++ {
			if bi := probeInterfaceScan(l, bodies[i], bodies[j], opts); len(bi.Samples) > 0 {
				out = append(out, bi)
			}
		}
	}
	return out
}

// probeInterfaceScan is the interface probe as it ran before the edge
// index: every probe scans all of B's edges in order (nearestScan), and
// the void and overlap tests use the Layer's own winding methods.
func probeInterfaceScan(l *Layer, a, b string, opts Options) BodyInterface {
	bi := BodyInterface{BodyA: a, BodyB: b}
	var bEdges []probeEdge
	for _, c := range l.Contours {
		if c.Closed && c.Body == b {
			bEdges = appendEdges(bEdges, c.Poly)
		}
	}
	if len(bEdges) == 0 {
		return bi
	}
	sentinel := math.Nextafter(opts.InterfaceRange*opts.InterfaceRange, math.Inf(1))
	step := opts.RoadWidth / 4
	for _, c := range l.Contours {
		if !c.Closed || c.Body != a {
			continue
		}
		n := len(c.Poly)
		for i := 0; i < n; i++ {
			p0, p1 := c.Poly[i], c.Poly[(i+1)%n]
			segLen := p0.Dist(p1)
			tA := p1.Sub(p0).Normalized()
			steps := int(segLen/step) + 1
			for k := 0; k < steps; k++ {
				p := p0.Lerp(p1, (float64(k)+0.5)/float64(steps))
				d := math.Inf(1)
				var tB, q geom.Vec2
				if j, c := nearestScan(bEdges, p, sentinel); j >= 0 {
					d, tB, q = c.Dist(p), bEdges[j].b.Sub(bEdges[j].a).Normalized(), c
				}
				if d > opts.InterfaceRange {
					continue
				}
				if d > nearTol {
					if math.Abs(tA.Dot(tB)) < 0.7 {
						continue
					}
					off := q.Sub(p)
					if off.Len() > 0 && math.Abs(off.Normalized().Dot(tB)) > 0.5 {
						continue
					}
					if l.Material(p.Add(off.Scale(0.5))) {
						continue
					}
				}
				bi.Samples = append(bi.Samples, InterfaceSample{P: p, Width: d, Overlap: l.BodyWinding(b, p) > 0})
				bi.Length += segLen / float64(steps)
			}
		}
	}
	if len(bi.Samples) > 0 {
		bi.Crossings = countCrossingsNaive(l, a, b)
	}
	return bi
}

// appendEdges appends a closed loop's edges in order.
func appendEdges(dst []probeEdge, poly geom.Polygon) []probeEdge {
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		dst = append(dst, probeEdge{a: a, b: b, bounds: geom.Bounds2{
			Min: geom.V2(math.Min(a.X, b.X), math.Min(a.Y, b.Y)),
			Max: geom.V2(math.Max(a.X, b.X), math.Max(a.Y, b.Y)),
		}})
	}
	return dst
}

// checkIndexQueries compares each index query with the Layer method or
// reference scan it replaces, at random points, lattice points and every
// contour vertex.
func checkIndexQueries(t *testing.T, trial int, l *Layer, opts Options, rng *rand.Rand) {
	t.Helper()
	bodies := l.Bodies()
	px := new(probeIndex)
	px.build(l, bodies, opts)
	var pts []geom.Vec2
	for _, c := range l.Contours {
		pts = append(pts, c.Poly...)
	}
	for i := 0; i < 60; i++ {
		p := geom.V2(rng.Float64()*16-2, rng.Float64()*16-2)
		if i%2 == 0 {
			p = geom.V2(math.Round(p.X/latticeStep)*latticeStep, math.Round(p.Y/latticeStep)*latticeStep)
		}
		pts = append(pts, p)
	}
	rangeSq := opts.InterfaceRange * opts.InterfaceRange
	sentinel := math.Nextafter(rangeSq, math.Inf(1))
	reach := math.Abs(opts.InterfaceRange) + px.slack
	for _, p := range pts {
		if got, want := px.material(p), l.Material(p); got != want {
			t.Fatalf("trial %d: material(%v) = %t, layer says %t", trial, p, got, want)
		}
		for k, b := range bodies {
			be := &px.bodies[k]
			if got, want := px.winding(be, p), l.BodyWinding(b, p); got != want {
				t.Fatalf("trial %d: winding(%s, %v) = %d, layer says %d", trial, b, p, got, want)
			}
			wj, wq := nearestScan(be.edges, p, sentinel)
			if j, q := px.nearest(be, p, reach, sentinel); j != wj || q != wq {
				t.Fatalf("trial %d: nearest(%s, %v) = edge %d at %v, scan says edge %d at %v",
					trial, b, p, j, q, wj, wq)
			}
			// The in-order replay, which nearest falls back on when a
			// winner's box excludes its own closest point.
			cx0, cx1 := bin(p.X-reach, px.x0, px.invCell, px.nx), bin(p.X+reach, px.x0, px.invCell, px.nx)
			cy0, cy1 := bin(p.Y-reach, px.y0, px.invCell, px.ny), bin(p.Y+reach, px.y0, px.invCell, px.ny)
			if j, q := px.nearestInOrder(be, p, cx0, cx1, cy0, cy1, sentinel); j != wj || q != wq {
				t.Fatalf("trial %d: nearestInOrder(%s, %v) = edge %d at %v, scan says edge %d at %v",
					trial, b, p, j, q, wj, wq)
			}
		}
	}
	for i := range bodies {
		for j := range bodies {
			if i == j {
				continue
			}
			got := px.crossings(&px.bodies[i], &px.bodies[j])
			if want := countCrossingsNaive(l, bodies[i], bodies[j]); got != want {
				t.Fatalf("trial %d: crossings(%s, %s) = %d, naive says %d", trial, bodies[i], bodies[j], got, want)
			}
		}
	}
}

// nearestScan is the pre-index nearest-edge search: every edge in order,
// skipped when its box's DistSq is >= the best so far, replaced only by
// a strict improvement, bounded at sentinel.
func nearestScan(edges []probeEdge, p geom.Vec2, sentinel float64) (int, geom.Vec2) {
	best, win := sentinel, -1
	var closest geom.Vec2
	for i, e := range edges {
		if e.bounds.DistSq(p) >= best {
			continue
		}
		c := (geom.Segment2{A: e.a, B: e.b}).ClosestPoint(p)
		if dsq := c.DistSq(p); dsq < best {
			best, win, closest = dsq, i, c
		}
	}
	return win, closest
}

// Degenerate layouts: coincident bodies (every vertex shared), a body
// that is a single repeated point's loop, and a layer whose contours
// all collapse to one point, where the grid has zero extent.
func TestProbeIndexDegenerateLayers(t *testing.T) {
	square := geom.Polygon{geom.V2(0, 0), geom.V2(1, 0), geom.V2(1, 1), geom.V2(0, 1)}
	dot := geom.Polygon{geom.V2(0.5, 0.5), geom.V2(0.5, 0.5), geom.V2(0.5, 0.5)}
	cases := map[string][]Contour{
		"coincident": {
			{Poly: square, Body: "a", Closed: true},
			{Poly: square, Body: "b", Closed: true},
			{Poly: square.Reversed(), Body: "c", Closed: true},
		},
		"point-body": {
			{Poly: square, Body: "a", Closed: true},
			{Poly: dot, Body: "b", Closed: true},
		},
		"zero-extent": {
			{Poly: dot, Body: "a", Closed: true},
			{Poly: dot, Body: "b", Closed: true},
		},
	}
	for name, contours := range cases {
		l := &Layer{Contours: contours}
		for _, r := range []float64{0, 5e-324, 1e-9, 0.75, 100, -0.75, math.Inf(1)} {
			opts := DefaultOptions()
			opts.InterfaceRange = r
			got := findInterfaces(l, opts)
			if want := findInterfacesScan(l, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (range %g): indexed interfaces differ from the scan: %+v vs %+v", name, r, got, want)
			}
			if want := findInterfacesNaive(l, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (range %g): indexed interfaces differ from naive: %+v vs %+v", name, r, got, want)
			}
		}
	}
}
