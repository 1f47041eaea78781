package core

import (
	"context"
	"testing"

	"obfuscade/internal/mech"
	"obfuscade/internal/printer"
	"obfuscade/internal/stl"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
)

// exportSTL runs the owner's export at the given resolution and returns
// the binary STL a thief would exfiltrate.
func exportSTL(t *testing.T, prot *Protected, res tessellate.Resolution) []byte {
	t.Helper()
	part, err := ClonePart(prot.Part)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(part, res)
	if err != nil {
		t.Fatal(err)
	}
	data, err := stl.Marshal(m, stl.Binary, part.Name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The paper's primary threat: counterfeiting from a stolen STL. The STL
// freezes the resolution, so a coarse-only release leaves the thief no
// orientation that prints cleanly.
func TestManufactureFromStolenCoarseSTL(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	data := exportSTL(t, prot, tessellate.Coarse)
	prof := printer.DimensionElite()

	for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
		build, q, err := ManufactureFromSTL(data, o, prof)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if q.Grade == Good {
			t.Errorf("stolen coarse STL in %v should not print Good (got %v)", o, q.Grade)
		}
		if build.ModelVolume <= 0 {
			t.Errorf("%v: empty build", o)
		}
	}
}

// A custom-resolution export leaks the good x-y print — the owner must
// control export resolution as part of the key.
func TestManufactureFromStolenCustomSTL(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	data := exportSTL(t, prot, tessellate.Custom)
	prof := printer.DimensionElite()

	_, qXY, err := ManufactureFromSTL(data, mech.XY, prof)
	if err != nil {
		t.Fatal(err)
	}
	if qXY.Grade != Good {
		t.Errorf("custom STL x-y grade = %v, want good", qXY.Grade)
	}
	_, qXZ, err := ManufactureFromSTL(data, mech.XZ, prof)
	if err != nil {
		t.Fatal(err)
	}
	if qXZ.Grade != Defective {
		t.Errorf("custom STL x-z grade = %v, want defective", qXZ.Grade)
	}
}

func TestManufactureFromSTLErrors(t *testing.T) {
	prof := printer.DimensionElite()
	if _, _, err := ManufactureFromSTL([]byte("garbage"), mech.XY, prof); err == nil {
		t.Error("expected error for garbage STL")
	}
}

// Firmware Trojan + weight-check mitigation end to end.
func TestFirmwareTrojanCaughtByWeightCheck(t *testing.T) {
	prot, err := NewProtectedBar("bar", false)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ApplyKey(prot, prot.Manifest.Key)
	if err != nil {
		t.Fatal(err)
	}
	pl := supplychain.Pipeline{
		Resolution:  prot.Manifest.Key.Resolution,
		Orientation: prot.Manifest.Key.Orientation,
		Printer:     printer.DimensionElite(),
		PrintOpts:   printer.Options{ExtrusionTrim: 0.8},
	}
	run, err := pl.ExecuteCtx(context.Background(), part)
	if err != nil {
		t.Fatal(err)
	}
	design := part.Volume()
	if err := printer.WeightCheck(run.Build, design, 0.1); err == nil {
		t.Error("weight check should flag the trojaned build")
	}
	// Uncompromised build passes.
	pl.PrintOpts = printer.Options{}
	clean, err := pl.ExecuteCtx(context.Background(), part)
	if err != nil {
		t.Fatal(err)
	}
	if err := printer.WeightCheck(clean.Build, design, 0.1); err != nil {
		t.Errorf("clean build failed weight check: %v", err)
	}
	if err := printer.WeightCheck(clean.Build, -1, 0.1); err == nil {
		t.Error("expected error for invalid design volume")
	}
}

// Two stacked split features: the multi-surface variation §3.1 suggests.
func TestDoubleSplitFeature(t *testing.T) {
	prot, err := NewDoubleSplitBar("bar")
	if err != nil {
		t.Fatal(err)
	}
	if len(prot.Part.Bodies) != 3 {
		t.Fatalf("bodies = %d, want 3", len(prot.Part.Bodies))
	}
	res, err := ManufactureMemoCtx(context.Background(), prot,
		Key{Resolution: tessellate.Coarse, Orientation: mech.XZ}, printer.DimensionElite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Build.Seams) < 2 {
		t.Errorf("double split should produce >= 2 seams, got %d", len(res.Run.Build.Seams))
	}
	if res.Quality.Grade != Defective {
		t.Errorf("double-split x-z grade = %v", res.Quality.Grade)
	}
	// The correct key still prints cleanly.
	good, err := ManufactureMemoCtx(context.Background(), prot, prot.Manifest.Key, printer.DimensionElite(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.Quality.Grade != Good {
		t.Errorf("double-split correct key grade = %v (%v)", good.Quality.Grade, good.Quality.Notes)
	}
}
