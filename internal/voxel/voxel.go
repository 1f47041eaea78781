// Package voxel provides dense 3D occupancy grids used by the virtual
// printer for material deposition and by the testing stage for
// CT-scan-style non-destructive inspection (Table 1, "Testing" row).
package voxel

import (
	"cmp"
	"fmt"
	"slices"

	"obfuscade/internal/geom"
)

// Material labels the content of one voxel.
type Material uint8

const (
	// Empty voxels contain nothing.
	Empty Material = iota
	// Model voxels contain build material (ABS / VeroClear).
	Model
	// Support voxels contain dissolvable support material.
	Support
)

// String implements fmt.Stringer.
func (m Material) String() string {
	switch m {
	case Empty:
		return "empty"
	case Model:
		return "model"
	case Support:
		return "support"
	default:
		return fmt.Sprintf("Material(%d)", int(m))
	}
}

// Grid is a dense voxel grid. Cell (0,0,0)'s minimum corner sits at
// Origin; the in-plane cell size is Cell and the vertical size is CellZ
// (layer height), matching the anisotropic resolution of layered
// manufacturing.
type Grid struct {
	Origin     geom.Vec3
	Cell       float64
	CellZ      float64
	NX, NY, NZ int
	cells      []Material
}

// NewGrid allocates a grid covering the given bounds.
func NewGrid(bounds geom.AABB, cell, cellZ float64) (*Grid, error) {
	if cell <= 0 || cellZ <= 0 {
		return nil, fmt.Errorf("voxel: cell sizes must be positive (%g, %g)", cell, cellZ)
	}
	size := bounds.Size()
	nx := int(size.X/cell) + 1
	ny := int(size.Y/cell) + 1
	nz := int(size.Z/cellZ) + 1
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("voxel: empty bounds")
	}
	total := nx * ny * nz
	if total > 200_000_000 {
		return nil, fmt.Errorf("voxel: %d voxels exceed sanity limit", total)
	}
	return &Grid{
		Origin: bounds.Min,
		Cell:   cell,
		CellZ:  cellZ,
		NX:     nx, NY: ny, NZ: nz,
		cells: getCells(total),
	}, nil
}

func (g *Grid) idx(x, y, z int) int { return (z*g.NY+y)*g.NX + x }

// In reports whether the voxel coordinates are inside the grid.
func (g *Grid) In(x, y, z int) bool {
	return x >= 0 && y >= 0 && z >= 0 && x < g.NX && y < g.NY && z < g.NZ
}

// At returns the material at voxel (x, y, z); Empty outside the grid.
func (g *Grid) At(x, y, z int) Material {
	if !g.In(x, y, z) {
		return Empty
	}
	return g.cells[g.idx(x, y, z)]
}

// Set stores the material at (x, y, z); out-of-grid writes are ignored.
func (g *Grid) Set(x, y, z int, m Material) {
	if g.In(x, y, z) {
		g.cells[g.idx(x, y, z)] = m
	}
}

// Count returns the number of voxels with the given material.
func (g *Grid) Count(m Material) int {
	n := 0
	for _, c := range g.cells {
		if c == m {
			n++
		}
	}
	return n
}

// VoxelVolume returns the volume of a single voxel in mm^3.
func (g *Grid) VoxelVolume() float64 { return g.Cell * g.Cell * g.CellZ }

// Volume returns the total volume of voxels with the given material.
func (g *Grid) Volume(m Material) float64 {
	return float64(g.Count(m)) * g.VoxelVolume()
}

// Center returns the world position of a voxel centre.
func (g *Grid) Center(x, y, z int) geom.Vec3 {
	return geom.V3(
		g.Origin.X+(float64(x)+0.5)*g.Cell,
		g.Origin.Y+(float64(y)+0.5)*g.Cell,
		g.Origin.Z+(float64(z)+0.5)*g.CellZ,
	)
}

// Locate returns the voxel containing world point p (may be out of grid).
func (g *Grid) Locate(p geom.Vec3) (x, y, z int) {
	return int((p.X - g.Origin.X) / g.Cell),
		int((p.Y - g.Origin.Y) / g.Cell),
		int((p.Z - g.Origin.Z) / g.CellZ)
}

// Replace rewrites every voxel of material from to material to and
// returns the number changed (e.g. washing out dissolvable support).
func (g *Grid) Replace(from, to Material) int {
	n := 0
	for i, c := range g.cells {
		if c == from {
			g.cells[i] = to
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the grid. The copy draws from the same
// freelist as NewGrid and can be Released independently.
func (g *Grid) Clone() *Grid {
	ng := *g
	ng.cells = getCells(len(g.cells))
	copy(ng.cells, g.cells)
	return &ng
}

// Component is one connected region of voxels of a single material
// (6-connectivity).
type Component struct {
	Material Material
	// Voxels is the voxel count.
	Voxels int
	// TouchesBoundary reports whether the component reaches the grid
	// boundary (an external region rather than an internal cavity).
	TouchesBoundary bool
	// Bounds is the voxel-space bounding box {min, max} inclusive.
	MinV, MaxV [3]int
	// Seed is one voxel of the component.
	Seed [3]int
}

// BoundsWorld returns the world-space bounding box of the component.
func (c *Component) BoundsWorld(g *Grid) geom.AABB {
	return geom.AABB{
		Min: geom.V3(
			g.Origin.X+float64(c.MinV[0])*g.Cell,
			g.Origin.Y+float64(c.MinV[1])*g.Cell,
			g.Origin.Z+float64(c.MinV[2])*g.CellZ,
		),
		Max: geom.V3(
			g.Origin.X+float64(c.MaxV[0]+1)*g.Cell,
			g.Origin.Y+float64(c.MaxV[1]+1)*g.Cell,
			g.Origin.Z+float64(c.MaxV[2]+1)*g.CellZ,
		),
	}
}

// xRun is a maximal run of one material along x: voxels x0..x1 of
// row (y, z).
type xRun struct {
	x0, x1, y, z int32
}

// Components labels the 6-connected components of the given material and
// returns them sorted by descending size (stable: equal sizes keep the
// order in which a z, y, x scan reaches them).
//
// It labels maximal x-runs rather than voxels. Runs are numbered in scan
// order, and each run is joined by union-find to the runs it overlaps in
// x in row y-1 and in slab z-1, always under the smaller number. A root
// is therefore its component's first run, whose first voxel is the first
// voxel the scan reaches: the seed of the voxel flood fill this replaces.
func (g *Grid) Components(m Material) []Component {
	var runs []xRun
	var parent []int32                     // union-find forest over runs
	rowStart := make([]int32, g.NY*g.NZ+1) // row (y, z) holds runs[rowStart[r]:rowStart[r+1]]
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	// join unions every overlapping pair of runs from two rows, each list
	// sorted by x.
	join := func(cur, prev int) {
		i, iEnd := rowStart[cur], rowStart[cur+1]
		j, jEnd := rowStart[prev], rowStart[prev+1]
		for i < iEnd && j < jEnd {
			a, b := &runs[i], &runs[j]
			if a.x0 <= b.x1 && b.x0 <= a.x1 {
				ra, rb := find(i), find(j)
				if ra < rb {
					parent[rb] = ra
				} else if rb < ra {
					parent[ra] = rb
				}
			}
			if a.x1 < b.x1 {
				i++
			} else {
				j++
			}
		}
	}
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			r := z*g.NY + y
			row := g.cells[r*g.NX : (r+1)*g.NX]
			for x := 0; x < len(row); x++ {
				if row[x] != m {
					continue
				}
				x0 := x
				for x+1 < len(row) && row[x+1] == m {
					x++
				}
				parent = append(parent, int32(len(runs)))
				runs = append(runs, xRun{x0: int32(x0), x1: int32(x), y: int32(y), z: int32(z)})
			}
			rowStart[r+1] = int32(len(runs))
			if y > 0 {
				join(r, r-1)
			}
			if z > 0 {
				join(r, r-g.NY)
			}
		}
	}

	var comps []Component
	label := make([]int32, len(runs)) // per root run: its component index
	for i := range runs {
		ru := &runs[i]
		x0, x1, y, z := int(ru.x0), int(ru.x1), int(ru.y), int(ru.z)
		var c *Component
		if root := find(int32(i)); root == int32(i) {
			label[i] = int32(len(comps))
			comps = append(comps, Component{
				Material: m,
				MinV:     [3]int{x0, y, z},
				MaxV:     [3]int{x1, y, z},
				Seed:     [3]int{x0, y, z},
			})
			c = &comps[len(comps)-1]
		} else {
			c = &comps[label[root]]
		}
		c.Voxels += x1 - x0 + 1
		c.MinV = [3]int{min(c.MinV[0], x0), min(c.MinV[1], y), min(c.MinV[2], z)}
		c.MaxV = [3]int{max(c.MaxV[0], x1), max(c.MaxV[1], y), max(c.MaxV[2], z)}
		if x0 == 0 || y == 0 || z == 0 || x1 == g.NX-1 || y == g.NY-1 || z == g.NZ-1 {
			c.TouchesBoundary = true
		}
	}
	slices.SortStableFunc(comps, func(a, b Component) int { return cmp.Compare(b.Voxels, a.Voxels) })
	return comps
}

// InternalCavities returns empty components fully enclosed by material —
// what an X-ray/CT inspection of the printed artifact reveals. This is
// the genuine-part authentication check of ObfusCADe: the washed-out
// sphere leaves a detectable internal cavity.
func (g *Grid) InternalCavities() []Component {
	var out []Component
	for _, c := range g.Components(Empty) {
		if !c.TouchesBoundary {
			out = append(out, c)
		}
	}
	return out
}
