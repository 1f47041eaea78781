package slicer

import (
	"fmt"
	"math"

	"obfuscade/internal/geom"
)

// MoveRole labels what a toolpath move deposits.
type MoveRole uint8

const (
	// Travel moves reposition without extruding.
	Travel MoveRole = iota
	// Perimeter moves trace contour outlines with model material.
	Perimeter
	// Infill moves fill the interior with model material.
	Infill
	// Support moves deposit dissolvable support material.
	Support
)

// String implements fmt.Stringer.
func (r MoveRole) String() string {
	switch r {
	case Travel:
		return "travel"
	case Perimeter:
		return "perimeter"
	case Infill:
		return "infill"
	case Support:
		return "support"
	default:
		return fmt.Sprintf("MoveRole(%d)", int(r))
	}
}

// Move is one straight toolhead motion within a layer.
type Move struct {
	From, To geom.Vec2
	Role     MoveRole
	// Body names the body the move belongs to (perimeters only).
	Body string
}

// Len returns the travel distance of the move.
func (m Move) Len() float64 { return m.From.Dist(m.To) }

// LayerToolpath is the ordered move list for one layer.
type LayerToolpath struct {
	Index int
	Z     float64
	Moves []Move
}

// ExtrudedLength sums the lengths of extruding (non-travel) moves.
func (lt *LayerToolpath) ExtrudedLength() float64 {
	var sum float64
	for _, m := range lt.Moves {
		if m.Role != Travel {
			sum += m.Len()
		}
	}
	return sum
}

// Toolpath generates the printing toolpath for one layer: perimeters along
// every material-bounding contour, then raster infill at road-width
// spacing with alternating direction per layer ("solid model interior").
func (l *Layer) Toolpath(min, max geom.Vec2, opts Options) (*LayerToolpath, error) {
	lt := &LayerToolpath{Index: l.Index, Z: l.Z}
	var pos geom.Vec2
	hasPos := false
	moveTo := func(p geom.Vec2) {
		if !hasPos {
			// Record the layer's initial positioning as a zero-length
			// travel so G-code generation replays the exact start point.
			lt.Moves = append(lt.Moves, Move{From: p, To: p, Role: Travel})
		} else if !pos.Eq(p, 1e-9) {
			lt.Moves = append(lt.Moves, Move{From: pos, To: p, Role: Travel})
		}
		pos = p
		hasPos = true
	}
	extrude := func(p geom.Vec2, role MoveRole, body string) {
		lt.Moves = append(lt.Moves, Move{From: pos, To: p, Role: role, Body: body})
		pos = p
	}

	// Perimeters: each closed contour is traced as its own loop (plus
	// optional inset walls). Two split bodies therefore get separate
	// perimeter walls along their shared boundary — the cold seam of the
	// x-z prints (Fig. 7).
	walls := opts.Perimeters
	if walls <= 0 {
		walls = 1
	}
	traceLoop := func(poly geom.Polygon, body string) {
		moveTo(poly[0])
		for i := 1; i < len(poly); i++ {
			extrude(poly[i], Perimeter, body)
		}
		extrude(poly[0], Perimeter, body)
	}
	for _, c := range l.Contours {
		if !c.Closed || len(c.Poly) < 3 {
			continue
		}
		loop := c.Poly
		for w := 0; w < walls; w++ {
			traceLoop(loop, c.Body)
			if w+1 == walls {
				break
			}
			inset, ok := loop.Inset(opts.RoadWidth)
			if !ok {
				break // region too narrow for another wall
			}
			loop = inset
		}
	}

	// Raster infill from the scanline classification.
	r, err := l.Rasterize(min, max, opts.RoadWidth, nil)
	if err != nil {
		return nil, err
	}
	horizontal := l.Index%2 == 0
	emitRun := func(a, b geom.Vec2) {
		moveTo(a)
		extrude(b, Infill, "")
	}
	// Sparse infill skips raster lines: density d prints every round(1/d)
	// lines. Perimeters are always printed.
	skip := 1
	if opts.InfillDensity > 0 && opts.InfillDensity < 1 {
		skip = int(math.Round(1 / opts.InfillDensity))
		if skip < 1 {
			skip = 1
		}
	}
	if horizontal {
		for iy := 0; iy < r.NY; iy++ {
			if iy%skip != 0 {
				continue
			}
			runStart := -1
			for ix := 0; ix <= r.NX; ix++ {
				solid := ix < r.NX && r.At(ix, iy) == Model
				if solid && runStart < 0 {
					runStart = ix
				}
				if !solid && runStart >= 0 {
					a := r.Center(runStart, iy)
					b := r.Center(ix-1, iy)
					emitRun(a, b)
					runStart = -1
				}
			}
		}
	} else {
		for ix := 0; ix < r.NX; ix++ {
			if ix%skip != 0 {
				continue
			}
			runStart := -1
			for iy := 0; iy <= r.NY; iy++ {
				solid := iy < r.NY && r.At(ix, iy) == Model
				if solid && runStart < 0 {
					runStart = iy
				}
				if !solid && runStart >= 0 {
					a := r.Center(ix, runStart)
					b := r.Center(ix, iy-1)
					emitRun(a, b)
					runStart = -1
				}
			}
		}
	}
	return lt, nil
}

// Toolpaths generates toolpaths for every layer of the result.
func (r *Result) Toolpaths() ([]*LayerToolpath, error) {
	min := geom.V2(r.Bounds.Min.X-r.Opts.RoadWidth, r.Bounds.Min.Y-r.Opts.RoadWidth)
	max := geom.V2(r.Bounds.Max.X+r.Opts.RoadWidth, r.Bounds.Max.Y+r.Opts.RoadWidth)
	out := make([]*LayerToolpath, 0, len(r.Layers))
	for i := range r.Layers {
		lt, err := r.Layers[i].Toolpath(min, max, r.Opts)
		if err != nil {
			return nil, fmt.Errorf("slicer: layer %d: %w", i, err)
		}
		out = append(out, lt)
	}
	return out, nil
}

// TotalExtruded sums extruded length over all layers (a cheap volume
// proxy for integrity checks).
func TotalExtruded(paths []*LayerToolpath) float64 {
	var sum float64
	for _, p := range paths {
		sum += p.ExtrudedLength()
	}
	return sum
}
