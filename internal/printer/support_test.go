package printer

import (
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/slicer"
	"obfuscade/internal/tessellate"
)

// buildSphereVariant prints the embedded-sphere prism keeping support.
func buildSphereVariant(t *testing.T) (*Build, *slicer.Result) {
	t.Helper()
	p, err := brep.NewRectPrism("prism", geom.V3(25.4, 12.7, 12.7))
	if err != nil {
		t.Fatal(err)
	}
	if err := brep.EmbedSphere(p, "prism", geom.V3(12.7, 6.35, 6.35), 3.175,
		brep.EmbedOpts{}); err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Fine)
	if err != nil {
		t.Fatal(err)
	}
	opts := slicer.DefaultOptions()
	res, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrintCtx(context.Background(), res, DimensionElite(), Options{KeepSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

func TestSupportToolpaths(t *testing.T) {
	b, _ := buildSphereVariant(t)
	paths := b.SupportToolpaths()
	if len(paths) == 0 {
		t.Fatal("sphere variant should need support toolpaths")
	}
	var total float64
	for _, lt := range paths {
		total += lt.ExtrudedLength()
		for _, mv := range lt.Moves {
			if mv.Role != slicer.Support && mv.Role != slicer.Travel {
				t.Fatalf("unexpected role %v in support paths", mv.Role)
			}
		}
	}
	// Extruded support length x road cross-section approximates the
	// support volume.
	vol := total * b.Grid.Cell * b.Grid.CellZ
	if vol < 0.5*b.SupportVolume || vol > 2*b.SupportVolume {
		t.Errorf("support path volume %.0f vs deposited %.0f", vol, b.SupportVolume)
	}
}

func TestSupportToolpathsWashed(t *testing.T) {
	p, err := brep.NewRectPrism("prism", geom.V3(10, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	res, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrintCtx(context.Background(), res, DimensionElite(), Options{}) // washed
	if err != nil {
		t.Fatal(err)
	}
	if paths := b.SupportToolpaths(); len(paths) != 0 {
		t.Errorf("washed build support paths = %d, want 0", len(paths))
	}
}

func TestMergeToolpathsDualMaterialGCode(t *testing.T) {
	b, sliced := buildSphereVariant(t)
	model, err := sliced.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	support := b.SupportToolpaths()
	merged := MergeToolpathsByLayer(model, support)
	if len(merged) < len(model) {
		t.Fatalf("merged layers = %d < model layers %d", len(merged), len(model))
	}
	// Z strictly increasing.
	for i := 1; i < len(merged); i++ {
		if merged[i].Z <= merged[i-1].Z {
			t.Fatal("merged layers not z-ordered")
		}
	}
	prog, err := gcode.Generate("dual", merged, gcode.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both tools appear.
	sawT0, sawT1 := false, false
	for _, c := range prog.Commands {
		switch c.Code {
		case "T0":
			sawT0 = true
		case "T1":
			sawT1 = true
		}
	}
	if !sawT0 || !sawT1 {
		t.Errorf("dual-material program tools: T0=%t T1=%t", sawT0, sawT1)
	}
	rep, err := gcode.SimulateCtx(context.Background(), prog, gcode.DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("dual-material program violations: %v", rep.Violations)
	}
}

func TestExtrusionTrimAndWeightCheck(t *testing.T) {
	p, err := brep.NewRectPrism("prism", geom.V3(20, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	res, err := slicer.SliceIndexedCtx(context.Background(), m, slicer.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := PrintCtx(context.Background(), res, DimensionElite(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trojaned, err := PrintCtx(context.Background(), res, DimensionElite(), Options{ExtrusionTrim: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if trojaned.ModelVolume >= clean.ModelVolume {
		t.Errorf("trim should reduce volume: %v vs %v", trojaned.ModelVolume, clean.ModelVolume)
	}
	design := 20.0 * 10 * 5
	if err := WeightCheck(clean, design, 0.1); err != nil {
		t.Errorf("clean build failed weight check: %v", err)
	}
	if err := WeightCheck(trojaned, design, 0.1); err == nil {
		t.Error("trojaned build passed weight check")
	}
	if _, err := PrintCtx(context.Background(), res, DimensionElite(), Options{ExtrusionTrim: 1.5}); err == nil {
		t.Error("expected error for trim > 1")
	}
}
