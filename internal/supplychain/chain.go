package supplychain

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"obfuscade/internal/brep"
	"obfuscade/internal/cache"
	"obfuscade/internal/fea"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/memo"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/trace"
)

// memoSchema versions the memoized stage artifacts. Bump it whenever a
// stage's output bytes change for the same inputs (the memo analogue of
// the core.PipelineVersion bump that invalidates the serving cache) so a
// long-lived memo can never serve stale geometry across a deploy.
// Per-run memos — the default the quality matrix uses — die with the run
// and need no invalidation at all.
const memoSchema = "supplychain/1"

// stTessellate times tessellations, which a memoized pipeline runs only
// on memo misses: the stage's cost after sharing.
var stTessellate = trace.NewStage("stage", "tessellate.mesh")

// Pipeline is the full cloud-aware AM process chain of paper Fig. 1:
// CAD -> (FEA) -> STL -> slicing/G-code -> printing -> testing. Each
// stage's artifact is retained so attacks can be injected and mitigations
// evaluated at every hand-off.
type Pipeline struct {
	// Resolution is the CAD -> STL export setting.
	Resolution tessellate.Resolution
	// Orientation is the print orientation (paper Fig. 6).
	Orientation mech.Orientation
	// Printer is the machine profile; its layer height drives slicing.
	Printer printer.Profile
	// PrintOpts configures the virtual build.
	PrintOpts printer.Options
	// RunFEA enables the design-stage FEA pass (paper Fig. 3's model
	// optimisation step); adds runtime.
	RunFEA bool
	// Memo, when non-nil (from memo.New), memoizes the content-addressed
	// stage artifacts (tessellated master mesh, slicer z-sweep index) so
	// near-duplicate keys — same geometry at a different orientation or a
	// repeated run — share the serial prologue work instead of redoing it.
	// Nil is the single-job path: every stage builds inline, with no memo
	// lookups or counters. Outputs are byte-identical either way.
	Memo *cache.Cache
}

// DefaultPipeline returns the paper's baseline process: Coarse STL,
// flat x-y orientation, FDM printer, standard slicing.
func DefaultPipeline() Pipeline {
	return Pipeline{
		Resolution:  tessellate.Coarse,
		Orientation: mech.XY,
		Printer:     printer.DimensionElite(),
	}
}

// Run is the result of executing the pipeline on a part.
type Run struct {
	Part *brep.Part
	// CADBytes is the serialised native CAD file.
	CADBytes []byte
	// Mesh is the tessellated geometry after orientation.
	Mesh *mesh.Mesh
	// STLBytes is the exported binary STL.
	STLBytes []byte
	// STLStats summarises the exported file.
	STLStats stl.Stats
	// Sliced is the layer stack.
	Sliced *slicer.Result
	// Toolpaths are the per-layer tool motions.
	Toolpaths []*slicer.LayerToolpath
	// GCode is the generated program.
	GCode *gcode.Program
	// Build is the virtual print.
	Build *printer.Build
	// DesignKt is the stress concentration found by the design-stage
	// FEA (1 when RunFEA is off or no concentrator is present).
	DesignKt float64
	// StageSeconds records each stage's wall time, keyed by stage name
	// (cad, stl, slice, toolpath, gcode, print, fea). Values are
	// wall-clock-derived and excluded from determinism contracts; the
	// key set is fixed by the pipeline shape.
	StageSeconds map[string]float64
}

// ExecuteCtx runs the process chain on the part. The part is not
// modified. Each stage span parents to the span carried by ctx
// (typically a per-key span of the quality matrix) and the per-stage
// wall times are retained in Run.StageSeconds for the provenance
// manifest.
func (p Pipeline) ExecuteCtx(ctx context.Context, part *brep.Part) (*Run, error) {
	if err := p.Printer.Validate(); err != nil {
		return nil, err
	}
	ctx, tsp := trace.StartSpan(ctx, "stage", "supplychain.execute")
	defer tsp.End()
	run := &Run{Part: part, DesignKt: 1, StageSeconds: map[string]float64{}}
	t0 := time.Now()
	mark := func(stage string) {
		now := time.Now()
		run.StageSeconds[stage] = now.Sub(t0).Seconds()
		t0 = now
	}

	cadBytes, err := brep.Save(part)
	if err != nil {
		return nil, fmt.Errorf("supplychain: CAD stage: %w", err)
	}
	run.CADBytes = cadBytes
	mark("cad")

	m, err := p.tessellated(ctx, part, cadBytes)
	if err != nil {
		return nil, fmt.Errorf("supplychain: STL export stage: %w", err)
	}
	if p.Orientation == mech.XZ {
		m.Transform(geom.RotateX(math.Pi / 2))
	}
	b := m.Bounds()
	m.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))
	run.Mesh = m

	stlBytes, err := stl.Marshal(m, stl.Binary, part.Name)
	if err != nil {
		return nil, fmt.Errorf("supplychain: STL encode: %w", err)
	}
	run.STLBytes = stlBytes
	run.STLStats = stl.StatsOf(m)
	mark("stl")

	sliceOpts := slicer.DefaultOptions()
	sliceOpts.LayerHeight = p.Printer.LayerHeight
	sliceOpts.RoadWidth = p.Printer.RoadWidth
	idx, err := p.sweepIndex(ctx, m, cadBytes, sliceOpts)
	if err != nil {
		return nil, fmt.Errorf("supplychain: slicing stage: %w", err)
	}
	sliced, err := slicer.SliceIndexedCtx(ctx, m, sliceOpts, idx)
	if err != nil {
		return nil, fmt.Errorf("supplychain: slicing stage: %w", err)
	}
	run.Sliced = sliced
	mark("slice")

	paths, err := sliced.Toolpaths()
	if err != nil {
		return nil, fmt.Errorf("supplychain: toolpath stage: %w", err)
	}
	run.Toolpaths = paths
	mark("toolpath")
	prog, err := gcode.Generate(part.Name, paths, gcode.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("supplychain: G-code stage: %w", err)
	}
	run.GCode = prog
	mark("gcode")

	build, err := printer.PrintCtx(ctx, sliced, p.Printer, p.PrintOpts)
	if err != nil {
		return nil, fmt.Errorf("supplychain: printing stage: %w", err)
	}
	run.Build = build
	mark("print")

	if p.RunFEA {
		kt, err := designKt(part, build)
		if err != nil {
			return nil, fmt.Errorf("supplychain: FEA stage: %w", err)
		}
		run.DesignKt = kt
		mark("fea")
	}
	return run, nil
}

// resKey canonically encodes a Resolution for memo keys.
func resKey(r tessellate.Resolution) []byte {
	return []byte(r.Name + "|" +
		strconv.FormatFloat(r.Deviation, 'g', -1, 64) + "|" +
		strconv.FormatFloat(r.AngleDeg, 'g', -1, 64))
}

// tessellated returns the tessellated master mesh for the part, through
// the memo when one is wired. Memoized meshes are shared and immutable:
// every consumer — including the call that built the entry — receives a
// Clone, so the orientation transform downstream can never corrupt a
// value another matrix key is about to reuse.
func (p Pipeline) tessellated(ctx context.Context, part *brep.Part, cadBytes []byte) (*mesh.Mesh, error) {
	if p.Memo == nil {
		return p.tessellate(ctx, part)
	}
	key := memo.Keyed("tess", memoSchema, cadBytes, resKey(p.Resolution))
	v, _, err := p.Memo.GetOrCompute(ctx, key, func(ctx context.Context) (cache.Value, error) {
		return p.tessellate(ctx, part)
	})
	if err != nil {
		return nil, err
	}
	return v.(*mesh.Mesh).Clone(), nil
}

// tessellate meshes the part under the span carried by ctx: the memo
// lookup's on a miss, the pipeline's without a memo.
func (p Pipeline) tessellate(ctx context.Context, part *brep.Part) (_ *mesh.Mesh, err error) {
	_, sp := stTessellate.Start(ctx)
	defer func() { sp.EndErr(err) }()
	return tessellate.Tessellate(part, p.Resolution)
}

// sweepIndex returns the slicer's z-sweep index for the oriented mesh,
// through the memo when one is wired; without a memo it returns nil and
// SliceIndexedCtx builds inline — the single-job path. The key
// derives from the same content that determined the mesh (CAD bytes,
// resolution, orientation) plus the layer height, never from the mesh
// pointer, so a hit can only ever describe identical geometry; the
// slicer's compatibility guard backstops even that with a counted
// rebuild rather than wrong output.
func (p Pipeline) sweepIndex(ctx context.Context, m *mesh.Mesh, cadBytes []byte, opts slicer.Options) (*slicer.Index, error) {
	if p.Memo == nil {
		return nil, nil
	}
	key := memo.Keyed("zidx", memoSchema, cadBytes, resKey(p.Resolution),
		[]byte(fmt.Sprint(p.Orientation)),
		[]byte(strconv.FormatFloat(opts.LayerHeight, 'g', -1, 64)))
	v, _, err := p.Memo.GetOrCompute(ctx, key, func(ctx context.Context) (cache.Value, error) {
		return slicer.BuildIndex(ctx, m, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*slicer.Index), nil
}

// designKt runs the Fig. 9 slit analysis when the build contains a seam;
// pristine builds return 1.
func designKt(part *brep.Part, build *printer.Build) (float64, error) {
	if len(build.Seams) == 0 {
		return 1, nil
	}
	// Use the gauge geometry of the first prismatic body.
	var prism *brep.Prism
	for _, b := range part.Bodies {
		if pr, ok := b.Shape.(*brep.Prism); ok {
			prism = pr
			break
		}
	}
	if prism == nil {
		return 1, nil
	}
	w := prism.Top.Start().Y - prism.Bottom.Start().Y
	if w <= 0 {
		w = 6
	}
	t := prism.Z1 - prism.Z0
	seam := build.Seams[0]
	// The slit depth is the unbonded fraction of the half-width.
	depth := (1 - seam.BondQuality) * w / 4
	if depth <= 0 {
		return 1, nil
	}
	_, kt, err := fea.SplitTipAnalysis(33, w, t, 2000, 0.35, depth, 60)
	if err != nil {
		return 1, err
	}
	return kt, nil
}

// TestPrinted converts a pipeline run into a tensile specimen and tests
// it: the destructive-testing stage of Fig. 1. The material is selected
// from the printer profile and orientation; seam state comes from the
// build. n replicates are tested with the given noise seed.
func (p Pipeline) TestPrinted(run *Run, name string, n int, seed int64) (mech.GroupResult, error) {
	var mat mech.Material
	switch p.Printer.ModelMaterial {
	case "VeroClear":
		mat = mech.VeroClear(p.Orientation)
	default:
		mat = mech.ABS(p.Orientation)
	}
	spec := mech.Specimen{Mat: mat}
	if seam := firstSeam(run.Build); seam != nil {
		spec.SeamPresent = true
		spec.SeamQuality = seam.BondQuality
		kt := run.DesignKt
		if kt <= 1 {
			kt = 2.6 // default slit-tip concentration when FEA was skipped
		}
		spec.Kt = kt
		spec.ModulusKnockdown = 0.03
	}
	return mech.TestGroupCtx(context.Background(), name, spec, n, seed)
}

func firstSeam(b *printer.Build) *printer.SeamRecord {
	if b == nil || len(b.Seams) == 0 {
		return nil
	}
	return &b.Seams[0]
}
