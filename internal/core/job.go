package core

import (
	"context"
	"fmt"
	"strconv"

	"obfuscade/internal/gcode"
	"obfuscade/internal/printer"
	"obfuscade/internal/trace"
)

// PipelineVersion names the current output contract of the manufacture
// pipeline. It is hashed into content-addressed cache keys (see
// internal/serve), so bump it whenever a change alters the bytes a job
// produces — STL encoding, slicing, toolpath, G-code or provenance
// fields — to invalidate results cached by older builds.
const PipelineVersion = "obfuscade-pipeline/4"

// stJob times whole jobs, including every pipeline run of the job
// service.
var stJob = trace.NewStage("run", "core.job")

// JobSpec is one self-contained manufacture request: everything that
// determines the output bytes, and nothing else. The serving layer
// derives cache keys from a canonical encoding of this plus
// PipelineVersion.
type JobSpec struct {
	// Part selects the protected design; see BuildProtected.
	Part string
	// Key is the processing-condition combination to manufacture under.
	Key Key
	// Seed is the process noise seed recorded in the provenance.
	Seed int64
	// Simulate runs the G-code program through the printer envelope
	// simulator and folds the report into the provenance.
	Simulate bool
}

// JobResult is the deliverable of one manufacture job.
type JobResult struct {
	// STL is the exported binary STL.
	STL []byte
	// Provenance is the per-run audit record.
	Provenance Provenance
	// Quality is the artifact's grading.
	Quality QualityReport
}

// BuildProtected constructs the named protected design. The part names
// are the serving API's vocabulary:
//
//	bar         spline-split tensile bar
//	bar-sphere  spline-split bar with the embedded-sphere feature
//	double-bar  bar split into three bodies by two spline surfaces
//	prism       protected rectangular prism
func BuildProtected(part string) (*Protected, error) {
	switch part {
	case "bar":
		return NewProtectedBar(part, false)
	case "bar-sphere":
		return NewProtectedBar(part, true)
	case "double-bar":
		return NewDoubleSplitBar(part)
	case "prism":
		return NewProtectedPrism(part)
	default:
		return nil, fmt.Errorf("core: unknown part %q (want bar, bar-sphere, double-bar or prism)", part)
	}
}

// RunJob manufactures one job end to end: build the protected design,
// run the process chain under the spec's key, optionally simulate the
// G-code, and derive the provenance record. ctx cancellation or
// deadline expiry aborts mid-pipeline (the stages are context-aware
// down to individual layers).
func RunJob(ctx context.Context, spec JobSpec, prof printer.Profile) (_ *JobResult, err error) {
	ctx, sp := stJob.Start(ctx,
		trace.A("part", spec.Part),
		trace.A("key", spec.Key.String()),
		trace.A("seed", strconv.FormatInt(spec.Seed, 10)))
	defer func() { sp.EndErr(err) }()

	prot, err := BuildProtected(spec.Part)
	if err != nil {
		return nil, err
	}
	res, err := ManufactureMemoCtx(ctx, prot, spec.Key, prof, nil)
	if err != nil {
		return nil, err
	}
	var sim *gcode.Report
	if spec.Simulate {
		sim, err = gcode.SimulateCtx(ctx, res.Run.GCode, gcode.DimensionEliteEnvelope())
		if err != nil {
			return nil, err
		}
	}
	return &JobResult{
		STL:        res.Run.STLBytes,
		Provenance: NewProvenance(res, sim, spec.Seed),
		Quality:    res.Quality,
	}, nil
}
