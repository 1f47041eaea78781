package printer

import (
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/slicer"
	"obfuscade/internal/tessellate"
)

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
