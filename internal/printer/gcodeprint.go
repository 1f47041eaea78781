package printer

import (
	"context"
	"fmt"
	"math"
	"strings"

	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/voxel"
)

// PrintGCode executes a G-code program on the virtual machine, depositing
// each extruding move as a physical road into a voxel grid. Unlike
// PrintCtx (which deposits slicer regions), this path is driven purely
// by the program bytes — so G-code tampering (porosity injection,
// firmware under-extrusion) manifests in the printed artifact exactly as
// it would on the real machine.
//
// Tool selection follows the generator's convention: T0 deposits model
// material, T1 deposits support material. The grid covers the program's
// extruded extent; opts.Cell defaults to half the road width.
func PrintGCode(prog *gcode.Program, prof Profile, opts Options) (build *Build, err error) {
	_, sp := stGCodePrint.Start(context.TODO())
	defer func() {
		sp.EndErr(err)
		if err == nil {
			mDeposited.Add(int64(build.LayerCount))
		}
	}()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if prog == nil || len(prog.Commands) == 0 {
		return nil, fmt.Errorf("printer: empty program")
	}
	cell := opts.Cell
	if cell <= 0 {
		cell = prof.RoadWidth / 2
	}
	if opts.ExtrusionTrim < 0 || opts.ExtrusionTrim > 1 {
		return nil, fmt.Errorf("printer: ExtrusionTrim %g out of [0,1]", opts.ExtrusionTrim)
	}

	// First pass: bounds of extruding motion.
	bounds, nLayers, err := gcodeExtent(prog, prof)
	if err != nil {
		return nil, err
	}
	maxVox := opts.MaxVoxels
	if maxVox <= 0 {
		maxVox = 40_000_000
	}
	nx := int(bounds.Size().X/cell) + 3
	ny := int(bounds.Size().Y/cell) + 3
	layersPerSlab := 1
	for nx*ny*((nLayers+layersPerSlab-1)/layersPerSlab+1) > maxVox {
		layersPerSlab++
		if layersPerSlab > nLayers {
			return nil, fmt.Errorf("printer: program exceeds voxel budget")
		}
	}
	padded := bounds
	padded.Min.X -= cell
	padded.Min.Y -= cell
	// The grid must hold every layer slab regardless of how the extruded
	// z extent quantises.
	padded.Max.Z = padded.Min.Z + float64(nLayers)*prof.LayerHeight
	grid, err := voxel.NewGrid(padded, cell, prof.LayerHeight*float64(layersPerSlab))
	if err != nil {
		return nil, err
	}
	b := &Build{Profile: prof, Grid: grid, LayerCount: nLayers}

	// Second pass: deposit roads.
	pos := geom.V2(0, 0)
	z := 0.0
	e := 0.0
	tool := 0
	layerIndex := -1
	firstLayerZ := bounds.Min.Z
	for _, c := range prog.Commands {
		switch c.Code {
		case "T0":
			tool = 0
		case "T1":
			tool = 1
		case "G92":
			if v, ok := c.Arg("E"); ok {
				e = v
			}
		case "G0", "G1":
			next := pos
			if v, ok := c.Arg("X"); ok {
				next.X = v
			}
			if v, ok := c.Arg("Y"); ok {
				next.Y = v
			}
			if v, ok := c.Arg("Z"); ok && v != z {
				z = v
				layerIndex = int(math.Round((z - firstLayerZ) / prof.LayerHeight))
			}
			newE, hasE := c.Arg("E")
			if hasE && newE > e && layerIndex >= 0 {
				mat := voxel.Model
				if tool == 1 || strings.HasPrefix(c.Comment, "TYPE:support") {
					mat = voxel.Support
				}
				depositRoad(grid, pos, next, layerIndex/layersPerSlab, prof.RoadWidth/2, mat)
				e = newE
			}
			pos = next
		}
	}

	if opts.ExtrusionTrim > 0 && opts.ExtrusionTrim < 1 {
		applyExtrusionTrim(grid, opts.ExtrusionTrim)
	}
	b.ModelVolume = grid.Volume(voxel.Model)
	b.SupportVolume = grid.Volume(voxel.Support)
	if !opts.KeepSupport {
		grid.Replace(voxel.Support, voxel.Empty)
	}
	return b, nil
}

// gcodeExtent simulates the program to find the extruded bounding box and
// layer count.
func gcodeExtent(prog *gcode.Program, prof Profile) (geom.AABB, int, error) {
	bounds := geom.EmptyAABB()
	pos := geom.V2(0, 0)
	z := 0.0
	e := 0.0
	zs := map[int64]bool{}
	for _, c := range prog.Commands {
		switch c.Code {
		case "G92":
			if v, ok := c.Arg("E"); ok {
				e = v
			}
		case "G0", "G1":
			next := pos
			if v, ok := c.Arg("X"); ok {
				next.X = v
			}
			if v, ok := c.Arg("Y"); ok {
				next.Y = v
			}
			if v, ok := c.Arg("Z"); ok {
				z = v
			}
			if newE, ok := c.Arg("E"); ok && newE > e {
				bounds.Extend(geom.V3(pos.X, pos.Y, z))
				bounds.Extend(geom.V3(next.X, next.Y, z))
				zs[int64(math.Round(z*1e6))] = true
				e = newE
			}
			pos = next
		}
	}
	if bounds.IsEmpty() || len(zs) == 0 {
		return bounds, 0, fmt.Errorf("printer: program extrudes nothing")
	}
	// Layer count from the extruded z extent, indexed consistently with
	// the deposit pass (relative to the first extruding height).
	nLayers := int(math.Round((bounds.Max.Z-bounds.Min.Z)/prof.LayerHeight)) + 1
	return bounds, nLayers, nil
}

// depositRoad stamps the cells within halfWidth of the segment at the
// given slab index.
func depositRoad(g *voxel.Grid, a, b geom.Vec2, zi int, halfWidth float64, mat voxel.Material) {
	if zi < 0 || zi >= g.NZ {
		return
	}
	minX := math.Min(a.X, b.X) - halfWidth
	maxX := math.Max(a.X, b.X) + halfWidth
	minY := math.Min(a.Y, b.Y) - halfWidth
	maxY := math.Max(a.Y, b.Y) + halfWidth
	ix0 := int((minX - g.Origin.X) / g.Cell)
	ix1 := int((maxX-g.Origin.X)/g.Cell) + 1
	iy0 := int((minY - g.Origin.Y) / g.Cell)
	iy1 := int((maxY-g.Origin.Y)/g.Cell) + 1
	seg := geom.Segment2{A: a, B: b}
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			if !g.In(ix, iy, zi) {
				continue
			}
			c3 := g.Center(ix, iy, zi)
			if seg.Dist(geom.V2(c3.X, c3.Y)) <= halfWidth {
				// Model material never gets overwritten by support.
				if mat == voxel.Support && g.At(ix, iy, zi) == voxel.Model {
					continue
				}
				g.Set(ix, iy, zi, mat)
			}
		}
	}
}
