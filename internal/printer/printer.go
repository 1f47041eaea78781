// Package printer is a virtual additive-manufacturing machine. It deposits
// sliced layers into a voxel grid, generates dissolvable support material,
// applies road-level healing physics, records seam (body-interface) bond
// quality, and washes out support — producing the printed artifact that the
// testing stage (package mech, package voxel inspections) consumes.
//
// Two machine profiles mirror the paper's hardware: a Stratasys Dimension
// Elite FDM printer (ABS model material, SR-10 soluble support, 178 µm
// layers) and a Stratasys Objet30 Pro material-jetting printer (VeroClear,
// 16 µm minimum layers).
package printer

import (
	"context"
	"fmt"
	"math"

	"obfuscade/internal/geom"
	"obfuscade/internal/obs"
	"obfuscade/internal/slicer"
	"obfuscade/internal/trace"
	"obfuscade/internal/voxel"
)

// Virtual-print metrics: per-build latency plus deterministic layer and
// seam totals for both deposition paths (slicer-region and G-code).
var (
	stPrint      = trace.NewStage("stage", "printer.print")
	stGCodePrint = trace.NewStage("stage", "printer.gcodeprint")
	// stVoxel isolates the voxel work of a build — deposition, healing,
	// support generation, washout — so -stats can report the stage split
	// between slicing-side and voxel-side time.
	stVoxel    = trace.NewStage("stage", "printer.voxel")
	mDeposited = obs.Default().Counter("printer.layers.deposited")
	mSeams     = obs.Default().Counter("printer.seams")
)

// Profile describes a printer model and its deposition physics.
type Profile struct {
	// Name identifies the machine.
	Name string
	// Technology is "FDM" or "PolyJet".
	Technology string
	// LayerHeight is the build layer thickness in mm.
	LayerHeight float64
	// RoadWidth is the deposited road width in mm.
	RoadWidth float64
	// ModelMaterial and SupportMaterial name the feedstocks.
	ModelMaterial, SupportMaterial string
	// HealFraction is the fraction of the road width that adjacent roads
	// can bridge: void bands narrower than HealFraction*RoadWidth bond
	// partially instead of remaining open.
	HealFraction float64
	// InLayerWeldQuality is the bond quality (0..1) of a zero-width
	// in-layer seam between separately deposited regions.
	InLayerWeldQuality float64
	// ColdSeamQuality is the bond quality across a fully separated
	// (discontinuous-layer) seam.
	ColdSeamQuality float64
}

// DimensionElite returns the paper's FDM machine profile (Stratasys
// Dimension Elite: ABS model material, SR-10 soluble support, 178 µm
// layers).
func DimensionElite() Profile {
	return Profile{
		Name:               "Stratasys Dimension Elite",
		Technology:         "FDM",
		LayerHeight:        0.1778,
		RoadWidth:          0.5,
		ModelMaterial:      "ABS",
		SupportMaterial:    "SR-10",
		HealFraction:       0.14,
		InLayerWeldQuality: 1.0,
		ColdSeamQuality:    0.30,
	}
}

// Objet30Pro returns the paper's material-jetting machine profile
// (Stratasys Objet30 Pro: VeroClear photopolymer, 16 µm layers).
func Objet30Pro() Profile {
	return Profile{
		Name:            "Stratasys Objet30 Pro",
		Technology:      "PolyJet",
		LayerHeight:     0.016,
		RoadWidth:       0.1,
		ModelMaterial:   "VeroClear",
		SupportMaterial: "SUP705",
		// Jetted droplets planarise each layer, so voids up to roughly a
		// droplet diameter (~70 µm) fill in regardless of the thin road
		// width.
		HealFraction:       0.7,
		InLayerWeldQuality: 1.0,
		ColdSeamQuality:    0.30,
	}
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.LayerHeight <= 0 || p.RoadWidth <= 0 {
		return fmt.Errorf("printer: profile %q needs positive layer height and road width", p.Name)
	}
	if p.HealFraction < 0 || p.HealFraction > 1 {
		return fmt.Errorf("printer: profile %q HealFraction out of [0,1]", p.Name)
	}
	return nil
}

// Options configures the virtual build.
type Options struct {
	// Cell is the in-plane voxel size in mm; zero means RoadWidth/2.
	Cell float64
	// MaxVoxels caps the grid size; the vertical voxel size is coarsened
	// (multiple layers per voxel slab) to stay below it. Zero means
	// 40 million.
	MaxVoxels int
	// KeepSupport retains support material in the returned grid instead
	// of washing it out.
	KeepSupport bool
	// ExtrusionTrim models a compromised firmware silently
	// under-extruding: the fraction of commanded material actually
	// deposited (1 or 0 means uncompromised). The defender's
	// weight/density inspection (Table 1, "3D Printer" row) catches the
	// deficit.
	ExtrusionTrim float64
}

// SeamRecord summarises the printed bond across one body-pair interface —
// the physical manifestation of a spline split feature.
type SeamRecord struct {
	// BodyA, BodyB name the two bodies.
	BodyA, BodyB string
	// Stats aggregates the interface void geometry from the slicer.
	Stats slicer.InterfaceStats
	// DiscontinuousFraction is the fraction of shared layers in which the
	// bodies were fully separated islands (separate perimeter walls).
	DiscontinuousFraction float64
	// BondQuality is the effective relative bond strength (0..1) across
	// the seam after deposition healing.
	BondQuality float64
}

// Build is the result of a virtual print.
type Build struct {
	// Profile is the machine used.
	Profile Profile
	// Grid is the printed artifact (support washed out unless
	// Options.KeepSupport was set).
	Grid *voxel.Grid
	// LayerCount is the number of build layers deposited.
	LayerCount int
	// ModelVolume and SupportVolume are deposited volumes in mm^3.
	ModelVolume, SupportVolume float64
	// Seams records per-body-pair bond quality.
	Seams []SeamRecord
	// SurfaceDisruption is the widest void band reaching the artifact
	// surface, mm — the paper's Fig. 8 "surface disruption" when it
	// exceeds VisibleDefectWidth.
	SurfaceDisruption float64
}

// VisibleDefectWidth is the smallest void band width (mm) that shows as a
// visible surface defect on an FDM print — under-extrusion bands narrower
// than this are hidden by road spreading and layer texture.
const VisibleDefectWidth = 0.03

// SurfaceDisrupted reports whether the build shows visible surface
// disruption (paper Fig. 8a).
func (b *Build) SurfaceDisrupted() bool {
	return b.SurfaceDisruption > VisibleDefectWidth
}

// SeamBetween returns the seam record for a body pair, or nil.
func (b *Build) SeamBetween(a, c string) *SeamRecord {
	for i := range b.Seams {
		s := &b.Seams[i]
		if (s.BodyA == a && s.BodyB == c) || (s.BodyA == c && s.BodyB == a) {
			return s
		}
	}
	return nil
}

// PrintCtx deposits a sliced model. The slicing layer height should match
// the profile's; a mismatch is an error (the process chain would
// re-slice). The stage span parents to the span carried by ctx and a
// batch instant records the deterministic deposited-layer count.
func PrintCtx(ctx context.Context, sliced *slicer.Result, prof Profile, opts Options) (build *Build, err error) {
	ctx, sp := stPrint.Start(ctx)
	defer func() {
		sp.EndErr(err)
		if err == nil {
			mDeposited.Add(int64(build.LayerCount))
			mSeams.Add(int64(len(build.Seams)))
			trace.Instant(ctx, "batch", "printer.layers",
				trace.A("count", fmt.Sprint(build.LayerCount)))
		}
	}()
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if math.Abs(sliced.Opts.LayerHeight-prof.LayerHeight) > 1e-9 {
		return nil, fmt.Errorf("printer: sliced at %g mm but %s builds %g mm layers",
			sliced.Opts.LayerHeight, prof.Name, prof.LayerHeight)
	}
	if len(sliced.Layers) == 0 {
		return nil, fmt.Errorf("printer: no layers to print")
	}
	cell := opts.Cell
	if cell <= 0 {
		cell = prof.RoadWidth / 2
	}
	maxVox := opts.MaxVoxels
	if maxVox <= 0 {
		maxVox = 40_000_000
	}

	// Choose a z aggregation factor so the grid fits the budget.
	size := sliced.Bounds.Size()
	nx := int(size.X/cell) + 3
	ny := int(size.Y/cell) + 3
	layersPerSlab := 1
	for {
		nz := (len(sliced.Layers)+layersPerSlab-1)/layersPerSlab + 1
		if nx*ny*nz <= maxVox {
			break
		}
		layersPerSlab++
		if layersPerSlab > len(sliced.Layers) {
			return nil, fmt.Errorf("printer: build of %dx%d cells cannot fit %d voxel budget",
				nx, ny, maxVox)
		}
	}
	padded := sliced.Bounds
	padded.Min.X -= cell
	padded.Min.Y -= cell
	padded.Max.X += cell
	padded.Max.Y += cell
	grid, err := voxel.NewGrid(padded, cell, prof.LayerHeight*float64(layersPerSlab))
	if err != nil {
		return nil, err
	}

	b := &Build{Profile: prof, Grid: grid, LayerCount: len(sliced.Layers)}

	// Seam physics from the slicer's exact interface geometry.
	for i, a := range sliced.BodyNames {
		for _, c := range sliced.BodyNames[i+1:] {
			st := sliced.InterfaceStatsBetween(a, c)
			if st.Layers == 0 {
				continue
			}
			disc := sliced.DiscontinuousLayerFraction(a, c)
			b.Seams = append(b.Seams, SeamRecord{
				BodyA: a, BodyB: c,
				Stats:                 st,
				DiscontinuousFraction: disc,
				BondQuality:           bondQuality(prof, st, disc),
			})
			if st.MaxWidth > b.SurfaceDisruption {
				b.SurfaceDisruption = st.MaxWidth
			}
		}
	}

	// The rest of the build is its voxel work.
	_, vsp := stVoxel.Start(ctx)
	defer func() { vsp.EndErr(err) }()
	// Deposit model material layer by layer. One raster's cell arrays are
	// recycled across the whole loop: every layer shares the same bounds
	// and cell size, so after the first layer RasterizeInto never
	// allocates the big Class/Owner stores again.
	rmin := grid.Origin.XY()
	rmax := geom.V2(
		grid.Origin.X+float64(grid.NX)*cell,
		grid.Origin.Y+float64(grid.NY)*cell,
	)
	var r *slicer.Raster
	for li := range sliced.Layers {
		layer := &sliced.Layers[li]
		r, err = layer.RasterizeInto(rmin, rmax, cell, nil, r)
		if err != nil {
			return nil, fmt.Errorf("printer: layer %d: %w", li, err)
		}
		zi := li / layersPerSlab
		for iy := 0; iy < r.NY && iy < grid.NY; iy++ {
			for ix := 0; ix < r.NX && ix < grid.NX; ix++ {
				if r.At(ix, iy) == slicer.Model {
					grid.Set(ix, iy, zi, voxel.Model)
				}
			}
		}
	}

	if opts.ExtrusionTrim > 0 && opts.ExtrusionTrim < 1 {
		applyExtrusionTrim(grid, opts.ExtrusionTrim)
	} else if opts.ExtrusionTrim < 0 || opts.ExtrusionTrim > 1 {
		return nil, fmt.Errorf("printer: ExtrusionTrim %g out of [0,1]", opts.ExtrusionTrim)
	}

	healVoids(grid, prof, cell)
	generateSupport(grid)

	b.ModelVolume = grid.Volume(voxel.Model)
	b.SupportVolume = grid.Volume(voxel.Support)
	if !opts.KeepSupport {
		grid.Replace(voxel.Support, voxel.Empty)
	}
	return b, nil
}

// bondQuality converts interface geometry into an effective relative bond
// strength in [0, 1]:
//
//   - In layers where the bodies' contours cross (merged regions), the
//     seam is an in-layer weld degraded by the widest void band the roads
//     must bridge: q = InLayerWeldQuality * max(0, 1 - maxWidth/healWidth).
//     The maximum width governs because fracture initiates at the worst
//     spot of the seam, not its average.
//   - In discontinuous layers the two perimeter walls never fuse:
//     q = ColdSeamQuality.
//
// The overall seam quality is the layer-fraction-weighted mix. This is the
// model documented in DESIGN.md §4, calibrated so that the paper's Table 2
// split rows are predicted from its intact rows.
func bondQuality(prof Profile, st slicer.InterfaceStats, discFraction float64) float64 {
	healWidth := prof.HealFraction * prof.RoadWidth
	heal := 0.0
	if healWidth > 0 {
		heal = 1 - st.MaxWidth/healWidth
	}
	if heal < 0 {
		heal = 0
	}
	merged := prof.InLayerWeldQuality * heal
	q := (1-discFraction)*merged + discFraction*prof.ColdSeamQuality
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return q
}

// applyExtrusionTrim removes a deterministic fraction of the deposited
// model voxels, emulating a firmware Trojan thinning roads below spec.
func applyExtrusionTrim(g *voxel.Grid, trim float64) {
	period := int(math.Round(1 / (1 - trim)))
	if period < 2 {
		period = 2
	}
	n := 0
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				if g.At(x, y, z) != voxel.Model {
					continue
				}
				n++
				if n%period == 0 {
					g.Set(x, y, z, voxel.Empty)
				}
			}
		}
	}
}

// WeightCheck is the Table 1 "measurement of weight/density" mitigation:
// it compares the printed model volume against the design volume and
// reports whether the part is underweight beyond the tolerance fraction.
func WeightCheck(b *Build, designVolume, tol float64) error {
	if designVolume <= 0 {
		return fmt.Errorf("printer: design volume must be positive")
	}
	ratio := b.ModelVolume / designVolume
	if ratio < 1-tol {
		return fmt.Errorf("printer: part underweight: %.1f%% of design volume (tolerance %.0f%%)",
			100*ratio, 100*tol)
	}
	return nil
}

// healVoids applies road spreading: enclosed void cells in runs narrower
// than the healable width, flanked by model material, fuse into model
// material. Wider voids (e.g. the embedded sphere) remain open.
func healVoids(g *voxel.Grid, prof Profile, cell float64) {
	healCells := int(prof.HealFraction * prof.RoadWidth / cell)
	if healCells <= 0 {
		return
	}
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			run := 0
			for x := 0; x <= g.NX; x++ {
				isVoid := x < g.NX && g.At(x, y, z) == voxel.Empty
				if isVoid {
					run++
					continue
				}
				if run > 0 && run <= healCells &&
					x-run-1 >= 0 && g.At(x-run-1, y, z) == voxel.Model &&
					x < g.NX && g.At(x, y, z) == voxel.Model {
					for k := x - run; k < x; k++ {
						g.Set(k, y, z, voxel.Model)
					}
				}
				run = 0
			}
		}
	}
}

// generateSupport fills every empty voxel that has model material above it
// in the same column with support material — the "smart support fill" that
// packs enclosed cavities (the embedded sphere of Fig. 10c) and supports
// overhangs.
func generateSupport(g *voxel.Grid) {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			seenModel := false
			for z := g.NZ - 1; z >= 0; z-- {
				switch g.At(x, y, z) {
				case voxel.Model:
					seenModel = true
				case voxel.Empty:
					if seenModel {
						g.Set(x, y, z, voxel.Support)
					}
				}
			}
		}
	}
}
