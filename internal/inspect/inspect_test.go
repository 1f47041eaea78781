package inspect

import (
	"context"
	"math"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/printer"
	"obfuscade/internal/slicer"
	"obfuscade/internal/supplychain"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/voxel"
)

func prismMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	p, err := brep.NewRectPrism("prism", geom.V3(25.4, 12.7, 12.7))
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Fine)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func printMesh(t *testing.T, m *mesh.Mesh) *printer.Build {
	t.Helper()
	prof := printer.DimensionElite()
	opts := slicer.DefaultOptions()
	opts.LayerHeight = prof.LayerHeight
	sliced, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := printer.PrintCtx(context.Background(), sliced, prof, printer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVoxelizeMeshVolume(t *testing.T) {
	m := prismMesh(t)
	g, err := VoxelizeMesh(m, 0.25, 0.1778)
	if err != nil {
		t.Fatal(err)
	}
	want := 25.4 * 12.7 * 12.7
	got := g.Volume(voxel.Model)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("voxelized volume = %v, want ~%v", got, want)
	}
}

func TestCTCompareCleanPrint(t *testing.T) {
	m := prismMesh(t)
	ref, err := VoxelizeMesh(m, 0.25, 0.1778)
	if err != nil {
		t.Fatal(err)
	}
	b := printMesh(t, m)
	rep, err := CTCompare(b.Grid, ref)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MatchFraction < 0.9 {
		t.Errorf("clean print match = %v, want > 0.9", rep.MatchFraction)
	}
	if rep.Anomalous(0.08) {
		t.Errorf("clean print flagged anomalous: %+v", rep)
	}
}

func TestCTCompareDetectsVoidAttack(t *testing.T) {
	design := prismMesh(t)
	ref, err := VoxelizeMesh(design, 0.25, 0.1778)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker embeds a hidden cavity (CAD Trojan) before printing.
	p, err := brep.NewRectPrism("prism", geom.V3(25.4, 12.7, 12.7))
	if err != nil {
		t.Fatal(err)
	}
	if err := supplychain.CADTrojanAttack(p, nil); err != nil {
		t.Fatal(err)
	}
	trojaned, err := tessellate.Tessellate(p, tessellate.Fine)
	if err != nil {
		t.Fatal(err)
	}
	b := printMesh(t, trojaned)
	rep, err := CTCompare(b.Grid, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Anomalous(0.01) {
		t.Errorf("Trojan cavity not flagged: %+v", rep)
	}
	if rep.InternalCavities == 0 {
		t.Error("CT should see the internal cavity")
	}
	if rep.MissingVolume <= 0 {
		t.Error("CT should see missing volume")
	}
}

func TestDimensionsDetectScalingAttack(t *testing.T) {
	design := prismMesh(t)
	scaled := design.Clone()
	if err := supplychain.ScaleAttack(scaled, 1.04); err != nil {
		t.Fatal(err)
	}
	b := printMesh(t, scaled)
	rep := MeasureDimensions(b.Grid, design)
	if rep.WithinTolerance(0.5) {
		t.Errorf("4%% scaling not caught: %+v", rep)
	}
	// A clean print passes the same gauge.
	clean := printMesh(t, design)
	cleanRep := MeasureDimensions(clean.Grid, design)
	if !cleanRep.WithinTolerance(0.6) {
		t.Errorf("clean print out of tolerance: %+v", cleanRep)
	}
}

func TestMeasureDimensionsEmptyPrint(t *testing.T) {
	design := prismMesh(t)
	ref, err := VoxelizeMesh(design, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	empty := ref.Clone()
	empty.Replace(voxel.Model, voxel.Empty)
	rep := MeasureDimensions(empty, design)
	if rep.WithinTolerance(0.1) {
		t.Error("empty print should fail metrology")
	}
}

func TestCTCompareNil(t *testing.T) {
	if _, err := CTCompare(nil, nil); err == nil {
		t.Error("expected error for nil grids")
	}
}
