// Package inspect implements the non-destructive testing stage of the AM
// process chain (paper Fig. 1 "testing", Table 1 "Testing" row):
// CT-scan-style volumetric comparison of a printed artifact against its
// design intent, and dimensional metrology. These are the checks that
// catch sabotage attacks (voids, scaling, protrusions, Trojan cavities)
// after printing, and that authenticate ObfusCADe feature signatures.
package inspect

import (
	"context"
	"fmt"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
	"obfuscade/internal/voxel"
)

// VoxelizeMesh rasterises a watertight design mesh into a voxel grid with
// the given cell sizes — the reference volume a CT comparison needs. The
// same winding rule as the slicer is applied, so design intent and print
// agree on what "solid" means.
func VoxelizeMesh(m *mesh.Mesh, cell, cellZ float64) (*voxel.Grid, error) {
	opts := slicer.DefaultOptions()
	opts.LayerHeight = cellZ
	sliced, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("inspect: voxelize: %w", err)
	}
	bounds := sliced.Bounds
	bounds.Min.X -= cell
	bounds.Min.Y -= cell
	bounds.Max.X += cell
	bounds.Max.Y += cell
	grid, err := voxel.NewGrid(bounds, cell, cellZ)
	if err != nil {
		return nil, err
	}
	rmin := geom.V2(grid.Origin.X, grid.Origin.Y)
	rmax := geom.V2(
		grid.Origin.X+float64(grid.NX)*cell,
		grid.Origin.Y+float64(grid.NY)*cell,
	)
	for li := range sliced.Layers {
		r, err := sliced.Layers[li].Rasterize(rmin, rmax, cell, nil)
		if err != nil {
			return nil, err
		}
		for iy := 0; iy < r.NY && iy < grid.NY; iy++ {
			for ix := 0; ix < r.NX && ix < grid.NX; ix++ {
				if r.At(ix, iy) == slicer.Model {
					grid.Set(ix, iy, li, voxel.Model)
				}
			}
		}
	}
	return grid, nil
}

// CTReport is the volumetric comparison of a printed part against its
// design.
type CTReport struct {
	// MissingVolume is design-solid space the print left empty, mm^3.
	MissingVolume float64
	// ExtraVolume is printed material outside the design, mm^3.
	ExtraVolume float64
	// DesignVolume is the reference solid volume, mm^3.
	DesignVolume float64
	// MatchFraction is the volumetric IoU (intersection over union).
	MatchFraction float64
	// InternalCavities counts enclosed voids in the print.
	InternalCavities int
}

// Anomalous reports whether the deviation exceeds tolerance tol
// (fraction of the design volume) in either direction, or internal
// cavities exist.
func (r CTReport) Anomalous(tol float64) bool {
	if r.DesignVolume <= 0 {
		return true
	}
	return r.MissingVolume/r.DesignVolume > tol ||
		r.ExtraVolume/r.DesignVolume > tol ||
		r.InternalCavities > 0
}

// CTCompare overlays the printed grid on the reference grid (sampling the
// reference at each printed voxel centre) and reports the volumetric
// deviation. The grids may have different resolutions and origins.
func CTCompare(printed, reference *voxel.Grid) (CTReport, error) {
	if printed == nil || reference == nil {
		return CTReport{}, fmt.Errorf("inspect: nil grid")
	}
	rep := CTReport{DesignVolume: reference.Volume(voxel.Model)}
	vv := printed.VoxelVolume()
	var both, printedOnly float64
	for z := 0; z < printed.NZ; z++ {
		for y := 0; y < printed.NY; y++ {
			for x := 0; x < printed.NX; x++ {
				if printed.At(x, y, z) != voxel.Model {
					continue
				}
				c := printed.Center(x, y, z)
				rx, ry, rz := reference.Locate(c)
				if reference.At(rx, ry, rz) == voxel.Model {
					both += vv
				} else {
					printedOnly += vv
				}
			}
		}
	}
	rep.ExtraVolume = printedOnly
	rep.MissingVolume = rep.DesignVolume - both
	if rep.MissingVolume < 0 {
		rep.MissingVolume = 0
	}
	union := rep.DesignVolume + printedOnly
	if union > 0 {
		rep.MatchFraction = both / union
	}
	rep.InternalCavities = len(printed.InternalCavities())
	return rep, nil
}

// DimensionReport is the metrology comparison of overall dimensions.
type DimensionReport struct {
	// Measured is the printed part's bounding size, mm.
	Measured geom.Vec3
	// Design is the design's bounding size, mm.
	Design geom.Vec3
	// Delta is measured minus design, mm.
	Delta geom.Vec3
}

// WithinTolerance reports whether every dimension is within tol mm of the
// design.
func (d DimensionReport) WithinTolerance(tol float64) bool {
	return d.Delta.Abs().X <= tol && d.Delta.Abs().Y <= tol && d.Delta.Abs().Z <= tol
}

// MeasureDimensions compares the printed part's model-material bounding
// box against the design mesh's bounds — the go/no-go gauge check that
// catches dimension-scaling attacks.
func MeasureDimensions(printed *voxel.Grid, design *mesh.Mesh) DimensionReport {
	lo := [3]int{printed.NX, printed.NY, printed.NZ}
	hi := [3]int{-1, -1, -1}
	for z := 0; z < printed.NZ; z++ {
		for y := 0; y < printed.NY; y++ {
			for x := 0; x < printed.NX; x++ {
				if printed.At(x, y, z) != voxel.Model {
					continue
				}
				v := [3]int{x, y, z}
				for i := 0; i < 3; i++ {
					if v[i] < lo[i] {
						lo[i] = v[i]
					}
					if v[i] > hi[i] {
						hi[i] = v[i]
					}
				}
			}
		}
	}
	rep := DimensionReport{Design: design.Bounds().Size()}
	if hi[0] < 0 {
		rep.Delta = rep.Design.Neg()
		return rep
	}
	rep.Measured = geom.V3(
		float64(hi[0]-lo[0]+1)*printed.Cell,
		float64(hi[1]-lo[1]+1)*printed.Cell,
		float64(hi[2]-lo[2]+1)*printed.CellZ,
	)
	rep.Delta = rep.Measured.Sub(rep.Design)
	return rep
}
