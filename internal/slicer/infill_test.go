package slicer

import (
	"context"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

func TestSparseInfillReducesExtrusion(t *testing.T) {
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(30, 20, 1)),
	}}
	lengths := map[float64]float64{}
	for _, density := range []float64{1, 0.5, 0.25} {
		opts := DefaultOptions()
		opts.InfillDensity = density
		res, err := SliceIndexedCtx(context.Background(), m, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := res.Toolpaths()
		if err != nil {
			t.Fatal(err)
		}
		lengths[density] = TotalExtruded(paths)
	}
	if lengths[0.5] >= lengths[1] || lengths[0.25] >= lengths[0.5] {
		t.Errorf("extrusion should fall with density: %v", lengths)
	}
	// The interior dominates this part, so halving density should cut
	// extrusion by roughly a third or more (perimeters are unaffected).
	if lengths[0.5] > 0.8*lengths[1] {
		t.Errorf("half density saved too little: %v vs %v", lengths[0.5], lengths[1])
	}
}

func TestInfillDensityValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.InfillDensity = 1.5
	if err := opts.Validate(); err == nil {
		t.Error("expected error for density > 1")
	}
	opts.InfillDensity = -0.1
	if err := opts.Validate(); err == nil {
		t.Error("expected error for negative density")
	}
	opts.InfillDensity = 0 // means solid
	if err := opts.Validate(); err != nil {
		t.Errorf("zero density should mean solid: %v", err)
	}
}
