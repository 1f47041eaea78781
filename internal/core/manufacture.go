package core

import (
	"context"
	"fmt"

	"obfuscade/internal/brep"
	"obfuscade/internal/cache"
	"obfuscade/internal/obs"
	"obfuscade/internal/printer"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/trace"
)

// Manufacture metrics: per-run latency plus a deterministic census of the
// grades produced (same seed, same counts — asserted by the obs
// determinism test).
var (
	stManufacture   = trace.NewStage("stage", "core.manufacture")
	mGradeGood      = obs.Default().Counter("core.grade.good")
	mGradeDegraded  = obs.Default().Counter("core.grade.degraded")
	mGradeDefective = obs.Default().Counter("core.grade.defective")
)

func countGrade(g Grade) {
	switch g {
	case Good:
		mGradeGood.Inc()
	case Degraded:
		mGradeDegraded.Inc()
	case Defective:
		mGradeDefective.Inc()
	}
}

// Grade classifies a manufactured artifact's quality.
type Grade int

const (
	// Good parts are visually clean and structurally sound.
	Good Grade = iota
	// Degraded parts carry visible surface disruption or weakened seams
	// (reduced service life — paper Fig. 8a).
	Degraded
	// Defective parts have structural discontinuities or hollow regions
	// where the design is solid (paper Fig. 7, Fig. 10c).
	Defective
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case Good:
		return "good"
	case Degraded:
		return "degraded"
	case Defective:
		return "defective"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// QualityReport summarises the manufactured artifact's fitness.
type QualityReport struct {
	// Grade is the overall classification.
	Grade Grade
	// SurfaceDisrupted reports visible surface defects (Fig. 8a).
	SurfaceDisrupted bool
	// SurfaceDisruptionMM is the widest surface void band in mm.
	SurfaceDisruptionMM float64
	// SeamBondQuality is the weakest body-interface bond (1 when no
	// seam exists).
	SeamBondQuality float64
	// DiscontinuousFraction is the largest per-pair fraction of layers
	// with fully separated bodies (Fig. 7).
	DiscontinuousFraction float64
	// UnexpectedCavities counts internal cavities not present in the
	// design intent (the washed-out sphere of Fig. 10c).
	UnexpectedCavities int
	// Notes explains the grading.
	Notes []string
}

// Quality thresholds for grading.
const (
	// defectiveBond is the seam bond quality below which the part is
	// structurally defective.
	defectiveBond = 0.30
	// degradedBond is the seam bond quality below which service life is
	// reduced.
	degradedBond = 0.70
	// defectiveDiscontinuity is the discontinuous-layer fraction above
	// which the part is defective.
	defectiveDiscontinuity = 0.10
)

// GradeBuild derives a quality report from a virtual build. solidDesign
// declares whether the design intent is a fully dense part (no internal
// cavities expected).
func GradeBuild(b *printer.Build, solidDesign bool) QualityReport {
	rep := QualityReport{SeamBondQuality: 1, SurfaceDisruptionMM: b.SurfaceDisruption}
	if b.SurfaceDisrupted() {
		rep.SurfaceDisrupted = true
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("surface disruption %.3f mm exceeds visible threshold", b.SurfaceDisruption))
	}
	for _, s := range b.Seams {
		if s.BondQuality < rep.SeamBondQuality {
			rep.SeamBondQuality = s.BondQuality
		}
		if s.DiscontinuousFraction > rep.DiscontinuousFraction {
			rep.DiscontinuousFraction = s.DiscontinuousFraction
		}
	}
	if solidDesign {
		rep.UnexpectedCavities = len(b.Grid.InternalCavities())
	}

	switch {
	case rep.UnexpectedCavities > 0:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("%d internal cavities where design is solid", rep.UnexpectedCavities))
	case rep.DiscontinuousFraction > defectiveDiscontinuity:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("structural discontinuity in %.0f%% of layers", 100*rep.DiscontinuousFraction))
	case rep.SeamBondQuality < defectiveBond:
		rep.Grade = Defective
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("seam bond quality %.2f below structural minimum", rep.SeamBondQuality))
	case rep.SurfaceDisrupted || rep.SeamBondQuality < degradedBond:
		rep.Grade = Degraded
	default:
		rep.Grade = Good
	}
	return rep
}

// ManufactureResult bundles a pipeline run with its quality grading.
type ManufactureResult struct {
	Key     Key
	Part    *brep.Part
	Run     *supplychain.Run
	Quality QualityReport
}

// ManufactureMemoCtx applies the key's CAD operation, runs the full
// process chain under the key's resolution and orientation, and grades
// the artifact. This is what a manufacturer (legitimate or counterfeit)
// experiences when printing the protected model. The stage span parents
// to the span carried by ctx (typically a per-key span of the quality
// matrix) and records the resulting grade once known.
//
// mm is an optional stage memo (memo.New) wired into the process chain:
// keys that agree on geometry-determining inputs (CAD bytes, resolution)
// share tessellation and z-sweep index work through it, as the quality
// matrix does. A single job passes nil and builds every stage inline.
// Outputs are byte-identical either way — the memo trades only time and
// allocations, never content.
func ManufactureMemoCtx(ctx context.Context, prot *Protected, key Key, prof printer.Profile, mm *cache.Cache) (res *ManufactureResult, err error) {
	ctx, sp := stManufacture.Start(ctx)
	defer func() {
		if err == nil {
			countGrade(res.Quality.Grade)
			sp.SetArg("grade", res.Quality.Grade.String())
		}
		sp.EndErr(err)
	}()
	part, err := ApplyKey(prot, key)
	if err != nil {
		return nil, err
	}
	pl := supplychain.Pipeline{
		Resolution:  key.Resolution,
		Orientation: key.Orientation,
		Printer:     prof,
		Memo:        mm,
	}
	run, err := pl.ExecuteCtx(ctx, part)
	if err != nil {
		return nil, fmt.Errorf("core: manufacture under %v: %w", key, err)
	}
	return &ManufactureResult{
		Key:     key,
		Part:    part,
		Run:     run,
		Quality: GradeBuild(run.Build, true),
	}, nil
}
