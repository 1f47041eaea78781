package core

import (
	"context"
	"fmt"
	"math"

	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
)

// ManufactureFromSTL simulates the paper's primary counterfeiting threat:
// an attacker who exfiltrated only the exported STL file. The attacker
// re-imports the triangle soup, recovers the body structure by
// edge-connected components, chooses a print orientation, slices and
// prints — but cannot change the STL resolution, because the tessellation
// was fixed at export time. An IP owner who only ever releases Coarse
// exports therefore removes the resolution component of the key from the
// attacker's control entirely: no orientation prints the split feature
// cleanly.
func ManufactureFromSTL(stlBytes []byte, o mech.Orientation, prof printer.Profile) (*printer.Build, QualityReport, error) {
	m, err := stl.Unmarshal(stlBytes)
	if err != nil {
		return nil, QualityReport{}, fmt.Errorf("core: import stolen STL: %w", err)
	}
	if len(m.Shells) != 1 {
		return nil, QualityReport{}, fmt.Errorf("core: expected one anonymous shell, got %d", len(m.Shells))
	}
	// Recover per-body shells: split bodies share no welded edges, so
	// edge connectivity separates them (vertex tolerance above the
	// float32 quantisation of the STL round trip).
	comps := m.Shells[0].SplitEdgeComponents(1e-4)
	if len(comps) == 0 {
		return nil, QualityReport{}, fmt.Errorf("core: empty STL")
	}
	recovered := &mesh.Mesh{Shells: comps}

	if o == mech.XZ {
		recovered.Transform(geom.RotateX(math.Pi / 2))
	}
	b := recovered.Bounds()
	recovered.Transform(geom.Translate(geom.V3(-b.Min.X, -b.Min.Y, -b.Min.Z)))

	opts := slicer.DefaultOptions()
	opts.LayerHeight = prof.LayerHeight
	opts.RoadWidth = prof.RoadWidth
	sliced, err := slicer.SliceIndexedCtx(context.Background(), recovered, opts, nil)
	if err != nil {
		return nil, QualityReport{}, fmt.Errorf("core: slice stolen STL: %w", err)
	}
	build, err := printer.PrintCtx(context.Background(), sliced, prof, printer.Options{})
	if err != nil {
		return nil, QualityReport{}, fmt.Errorf("core: print stolen STL: %w", err)
	}
	q := GradeBuild(build, true)
	// Weight/volume sanity: a build far below the recovered shells'
	// combined volume (e.g. a body sliced inside-out after a botched
	// mesh "repair") is defective regardless of its surface finish.
	var expected float64
	for i := range recovered.Shells {
		v := recovered.Shells[i].ShellVolume()
		if v < 0 {
			v = -v
		}
		expected += v
	}
	if expected > 0 {
		if err := printer.WeightCheck(build, expected, 0.15); err != nil {
			q.Grade = Defective
			q.Notes = append(q.Notes, err.Error())
		}
	}
	return build, q, nil
}
