package slicer

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"obfuscade/internal/geom"
)

// CellClass classifies one raster cell of a layer.
type CellClass uint8

const (
	// Empty cells receive no material.
	Empty CellClass = iota
	// Model cells receive model material.
	Model
	// Void cells are enclosed by model geometry but receive no model
	// material (even winding): cavities and split slivers. The printer
	// decides whether support reaches them.
	Void
)

// Raster is the scanline classification of one layer at a fixed cell size.
type Raster struct {
	// Origin is the world position of cell (0, 0)'s corner.
	Origin geom.Vec2
	// Cell is the cell edge length, mm.
	Cell float64
	// NX, NY are the grid dimensions.
	NX, NY int
	// Class holds the classification, row-major (y*NX + x).
	Class []CellClass
	// Owner holds a bitmask of bodies whose material covers the cell
	// centre (bit i = Bodies[i]).
	Owner []uint32
	// Bodies indexes the owner bits.
	Bodies []string
}

// At returns the classification at cell (ix, iy), Empty outside the grid.
func (r *Raster) At(ix, iy int) CellClass {
	if ix < 0 || iy < 0 || ix >= r.NX || iy >= r.NY {
		return Empty
	}
	return r.Class[iy*r.NX+ix]
}

// Center returns the world coordinates of a cell centre.
func (r *Raster) Center(ix, iy int) geom.Vec2 {
	return geom.V2(
		r.Origin.X+(float64(ix)+0.5)*r.Cell,
		r.Origin.Y+(float64(iy)+0.5)*r.Cell,
	)
}

// crossing is one scanline/edge intersection.
type crossing struct {
	x     float64
	delta int32 // contribution to signed winding for points right of x
	body  int32 // body bit, -1 if unknown
}

// rasterEdge is one non-horizontal contour edge flattened for scanline
// rasterization, with its winding contribution and body bit precomputed.
type rasterEdge struct {
	a, b  geom.Vec2
	delta int32
	body  int32
}

// rasterScratch is the reusable working set of one Rasterize call: the
// flat edge list, the per-row bucket arena, the crossing list and the
// per-body winding accumulator. Pooled so repeated rasterization (the
// toolpath planner calls Rasterize once per layer) stays allocation-flat.
type rasterScratch struct {
	edges     []rasterEdge
	rowCnt    []int32
	rowOff    []int32
	entries   []int32
	crossings []crossing
	bodyW     []int
}

var rasterScratchPool = sync.Pool{New: func() any { return new(rasterScratch) }}

// rowSpan converts an edge's y-interval to a conservative [lo, hi] row
// range for scanlines at y = minY + (iy+0.5)*cell, clamped to [0, ny).
// Rows can only be added, never lost: the exact half-open crossing rule is
// re-checked per row, so a conservative range cannot change the raster.
func rowSpan(yLo, yHi, minY, cell float64, ny int) (lo, hi int) {
	lo = int(math.Floor((yLo-minY)/cell - 0.5))
	hi = int(math.Ceil((yHi-minY)/cell - 0.5))
	if lo < 0 {
		lo = 0
	}
	if hi > ny-1 {
		hi = ny - 1
	}
	return lo, hi
}

// Rasterize classifies the layer over the given 2D bounds with the given
// cell size. Edges are flattened and bucketed by row interval once, so
// each scanline visits only the edges that can cross it
// (O(edges + crossings + cells) instead of O(rows * edges)).
//
// The per-row crossing list is built by ascending edge index — the same
// order the naive full scan produces — and equal-x crossings are consumed
// together before any cell is classified, so the output is byte-identical
// to rasterizeNaive.
func (l *Layer) Rasterize(min, max geom.Vec2, cell float64, bodies []string) (*Raster, error) {
	return l.RasterizeInto(min, max, cell, bodies, nil)
}

// RasterizeInto is Rasterize recycling the cell arrays of a previous
// raster: when reuse is non-nil its Class/Owner backing stores are stolen
// (cleared, resized) for the new result, so a caller rasterizing many
// layers of one build — the virtual printer's deposit loop — allocates
// the big arrays once instead of per layer. reuse must not be read
// afterwards. Output is byte-identical to Rasterize.
func (l *Layer) RasterizeInto(min, max geom.Vec2, cell float64, bodies []string, reuse *Raster) (*Raster, error) {
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
		Bodies: bodies,
	}
	if reuse != nil && cap(reuse.Class) >= nx*ny && cap(reuse.Owner) >= nx*ny {
		r.Class = reuse.Class[:nx*ny]
		clear(r.Class)
		r.Owner = reuse.Owner[:nx*ny]
		clear(r.Owner)
	} else {
		r.Class = make([]CellClass, nx*ny)
		r.Owner = make([]uint32, nx*ny)
	}

	sc := rasterScratchPool.Get().(*rasterScratch)
	defer rasterScratchPool.Put(sc)

	// Flatten the closed contours' edges in contour order. Horizontal
	// edges can never satisfy the half-open crossing rule and are dropped
	// here once instead of per row.
	edges := sc.edges[:0]
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
			if a.Y == b.Y {
				continue
			}
			delta := int32(1)
			if b.Y > a.Y {
				delta = -1 // upward edge closes the winding to its right
			}
			edges = append(edges, rasterEdge{a: a, b: b, delta: delta, body: int32(bit)})
		}
	}
	sc.edges = edges

	// Bucket edges by row interval (count, prefix offsets, cursor fill).
	// Filling in ascending edge order keeps every bucket ascending.
	sc.rowCnt = grow(sc.rowCnt, ny)
	for i := range sc.rowCnt {
		sc.rowCnt[i] = 0
	}
	total := 0
	for ei := range edges {
		e := &edges[ei]
		yLo, yHi := e.a.Y, e.b.Y
		if yLo > yHi {
			yLo, yHi = yHi, yLo
		}
		lo, hi := rowSpan(yLo, yHi, min.Y, cell, ny)
		for iy := lo; iy <= hi; iy++ {
			sc.rowCnt[iy]++
			total++
		}
	}
	sc.rowOff = grow(sc.rowOff, ny+1)
	var acc int32
	for iy, c := range sc.rowCnt {
		sc.rowOff[iy] = acc
		acc += c
	}
	sc.rowOff[ny] = acc
	sc.entries = grow(sc.entries, total)
	for ei := range edges {
		e := &edges[ei]
		yLo, yHi := e.a.Y, e.b.Y
		if yLo > yHi {
			yLo, yHi = yHi, yLo
		}
		lo, hi := rowSpan(yLo, yHi, min.Y, cell, ny)
		for iy := lo; iy <= hi; iy++ {
			sc.entries[sc.rowOff[iy]] = int32(ei)
			sc.rowOff[iy]++
		}
	}
	for iy := ny - 1; iy > 0; iy-- {
		sc.rowOff[iy] = sc.rowOff[iy-1]
	}
	if ny > 0 {
		sc.rowOff[0] = 0
	}

	if cap(sc.bodyW) < len(bodies) {
		sc.bodyW = make([]int, len(bodies))
	}
	bodyW := sc.bodyW[:len(bodies)]

	crossings := sc.crossings
	for iy := 0; iy < ny; iy++ {
		y := min.Y + (float64(iy)+0.5)*cell
		crossings = crossings[:0]
		for _, ei := range sc.entries[sc.rowOff[iy]:sc.rowOff[iy+1]] {
			e := &edges[ei]
			// Half-open rule [minY, maxY) avoids double counting at
			// shared vertices.
			if (e.a.Y <= y) == (e.b.Y <= y) {
				continue
			}
			t := (y - e.a.Y) / (e.b.Y - e.a.Y)
			x := e.a.X + t*(e.b.X-e.a.X)
			crossings = append(crossings, crossing{x: x, delta: e.delta, body: e.body})
		}
		slices.SortFunc(crossings, func(p, q crossing) int {
			switch {
			case p.x < q.x:
				return -1
			case p.x > q.x:
				return 1
			default:
				return 0
			}
		})

		w := 0
		for i := range bodyW {
			bodyW[i] = 0
		}
		ci := 0
		for ix := 0; ix < nx; ix++ {
			xc := min.X + (float64(ix)+0.5)*cell
			for ci < len(crossings) && crossings[ci].x <= xc {
				w += int(crossings[ci].delta)
				if crossings[ci].body >= 0 {
					bodyW[crossings[ci].body] += int(crossings[ci].delta)
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
				// Inside some geometry but not receiving material:
				// cavity, doubly-covered sliver, or reversed surface
				// enclosure.
				r.Class[idx] = Void
			default:
				r.Class[idx] = Empty
			}
		}
	}
	sc.crossings = crossings
	return r, nil
}
