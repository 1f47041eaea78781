package supplychain

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/gcode"
	"obfuscade/internal/geom"
	"obfuscade/internal/mech"
	"obfuscade/internal/stl"
	"obfuscade/internal/tessellate"
)

func TestRegistryCoversAllStages(t *testing.T) {
	seen := map[Stage]bool{}
	for _, r := range Registry() {
		seen[r.Stage] = true
		if r.Description == "" || len(r.Mitigations) == 0 {
			t.Errorf("incomplete risk entry: %+v", r)
		}
	}
	for _, s := range Stages() {
		if !seen[s] {
			t.Errorf("stage %v missing from registry", s)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tbl := Table1()
	out := tbl.Render()
	for _, want := range []string{"CAD model & FEA", "STL file", "3D Printer",
		"design obfuscation", "digital signatures"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if len(tbl.Rows) < 10 {
		t.Errorf("Table 1 rows = %d, want >= 10", len(tbl.Rows))
	}
}

func TestTaxonomyStructure(t *testing.T) {
	tax := Taxonomy()
	if len(tax.Children) != 3 {
		t.Fatalf("top-level categories = %d, want 3", len(tax.Children))
	}
	if got := tax.LeafCount(); got < 8 {
		t.Errorf("leaf categories = %d, want >= 8", got)
	}
	// Every attack ID referenced by the taxonomy that names an
	// executable attack should exist in the catalog (or be a scenario
	// ID used by examples).
	catalog := map[string]bool{}
	for _, a := range Catalog() {
		catalog[a.ID] = true
	}
	executable := 0
	tax.Walk(func(_ int, n *TaxonomyNode) {
		for _, id := range n.AttackIDs {
			if catalog[id] {
				executable++
			}
		}
	})
	if executable < 5 {
		t.Errorf("executable taxonomy attacks = %d, want >= 5", executable)
	}
}

func TestStageString(t *testing.T) {
	if StageCAD.String() == "unknown" || Stage(99).String() != "unknown" {
		t.Error("Stage.String misbehaves")
	}
}

func barPart(t *testing.T) *brep.Part {
	t.Helper()
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVoidAttackDetectedByValidation(t *testing.T) {
	p := barPart(t)
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	if issues := m.Validate(1e-9); len(issues) != 0 {
		t.Fatalf("pristine mesh has issues: %v", issues)
	}
	if err := VoidAttack(m, 7); err != nil {
		t.Fatal(err)
	}
	if issues := m.Validate(1e-9); len(issues) == 0 {
		t.Error("void attack not detected by geometry validation")
	}
	if err := VoidAttack(m, 1); err == nil {
		t.Error("expected error for step < 2")
	}
}

func TestScaleAttackDetectedByDiff(t *testing.T) {
	p := barPart(t)
	ref, _ := tessellate.Tessellate(p, tessellate.Coarse)
	tampered := ref.Clone()
	if err := ScaleAttack(tampered, 1.01); err != nil {
		t.Fatal(err)
	}
	d := stl.Compare(ref, tampered)
	if d.Identical(1e-6) {
		t.Error("scaling attack not detected")
	}
	if err := ScaleAttack(tampered, -1); err == nil {
		t.Error("expected error for negative factor")
	}
}

func TestScaleAttackDetectedByDigest(t *testing.T) {
	p := barPart(t)
	m, _ := tessellate.Tessellate(p, tessellate.Coarse)
	data, _ := stl.Marshal(m, stl.Binary, "bar")
	digest := Digest(data)
	_ = ScaleAttack(m, 1.001)
	data2, _ := stl.Marshal(m, stl.Binary, "bar")
	if VerifyDigest(data2, digest) {
		t.Error("digest should change after tampering")
	}
}

func TestReorientAttackChangesAnisotropy(t *testing.T) {
	p := barPart(t)
	m, _ := tessellate.Tessellate(p, tessellate.Coarse)
	before := m.Bounds().Size()
	if err := ReorientAttack(m, math.Pi/2); err != nil {
		t.Fatal(err)
	}
	after := m.Bounds().Size()
	if math.Abs(before.Y-after.Z) > 1e-6 || after.Min(geom.V3(0, 0, 0)) != (geom.V3(0, 0, 0)) {
		t.Errorf("reorient: before %v after %v", before, after)
	}
	b := m.Bounds()
	if b.Min.Z < -1e-9 {
		t.Error("reoriented part should sit on the plate")
	}
}

func TestSignerSealAndTamper(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, 32)
	signer, err := NewSigner(seed)
	if err != nil {
		t.Fatal(err)
	}
	art := signer.Seal("design.stl", []byte("payload"))
	if err := art.Check(signer.Public()); err != nil {
		t.Errorf("genuine artifact rejected: %v", err)
	}
	art.Data = []byte("tampered")
	if err := art.Check(signer.Public()); err == nil {
		t.Error("tampered artifact accepted")
	}
	// Wrong key.
	other, _ := NewSigner(bytes.Repeat([]byte{9}, 32))
	good := signer.Seal("x", []byte("data"))
	if err := good.Check(other.Public()); err == nil {
		t.Error("signature verified with wrong key")
	}
	if _, err := NewSigner([]byte("short")); err == nil {
		t.Error("expected error for bad seed size")
	}
	if _, err := NewSigner(nil); err != nil {
		t.Errorf("random keygen failed: %v", err)
	}
}

func TestPipelineExecuteIntactBar(t *testing.T) {
	pl := DefaultPipeline()
	run, err := pl.ExecuteCtx(context.Background(), barPart(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.CADBytes) == 0 || len(run.STLBytes) == 0 {
		t.Error("missing artifacts")
	}
	if run.STLStats.Triangles != run.Mesh.TriangleCount() {
		t.Error("STL stats inconsistent")
	}
	if len(run.Sliced.Layers) == 0 || len(run.Toolpaths) == 0 {
		t.Error("missing slicing artifacts")
	}
	if run.Build == nil || run.Build.ModelVolume <= 0 {
		t.Error("missing build")
	}
	if len(run.Build.Seams) != 0 {
		t.Error("intact bar should have no seams")
	}
	// G-code simulates cleanly inside the machine envelope.
	rep, err := gcode.SimulateCtx(context.Background(), run.GCode, gcode.DimensionEliteEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("violations on clean run: %v", rep.Violations)
	}
}

func TestPipelineXZOrientation(t *testing.T) {
	pl := DefaultPipeline()
	pl.Orientation = mech.XZ
	run, err := pl.ExecuteCtx(context.Background(), barPart(t))
	if err != nil {
		t.Fatal(err)
	}
	// Standing on edge: height equals the bar's grip width.
	h := run.Mesh.Bounds().Size().Z
	if math.Abs(h-19) > 0.1 {
		t.Errorf("x-z build height = %v, want ~19", h)
	}
	if len(run.Sliced.Layers) < 100 {
		t.Errorf("x-z layers = %d, want > 100", len(run.Sliced.Layers))
	}
}

func TestPipelineTestPrintedIntactVsSplit(t *testing.T) {
	pl := DefaultPipeline()
	intactRun, err := pl.ExecuteCtx(context.Background(), barPart(t))
	if err != nil {
		t.Fatal(err)
	}
	intact, err := pl.TestPrinted(intactRun, "intact x-y", 5, 1)
	if err != nil {
		t.Fatal(err)
	}

	split := barPart(t)
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := brep.SplitBySpline(split, "bar", s); err != nil {
		t.Fatal(err)
	}
	splitRun, err := pl.ExecuteCtx(context.Background(), split)
	if err != nil {
		t.Fatal(err)
	}
	if len(splitRun.Build.Seams) == 0 {
		t.Fatal("split bar should have a seam")
	}
	splitGroup, err := pl.TestPrinted(splitRun, "spline x-y", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if splitGroup.FailureStrain.Mean > 0.6*intact.FailureStrain.Mean {
		t.Errorf("split failure strain %v vs intact %v: want >= 40%% loss",
			splitGroup.FailureStrain.Mean, intact.FailureStrain.Mean)
	}
	if splitGroup.Toughness.Mean > intact.Toughness.Mean/2 {
		t.Errorf("split toughness %v vs intact %v: want >= 2x loss",
			splitGroup.Toughness.Mean, intact.Toughness.Mean)
	}
}

func TestCADTrojanDetectedByCT(t *testing.T) {
	p, err := brep.NewRectPrism("prism", geom.V3(25.4, 12.7, 12.7))
	if err != nil {
		t.Fatal(err)
	}
	if err := CADTrojanAttack(p, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	pl := DefaultPipeline()
	pl.Resolution = tessellate.Fine
	run, err := pl.ExecuteCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cavities := run.Build.Grid.InternalCavities()
	if len(cavities) == 0 {
		t.Error("CT inspection should find the Trojan cavity")
	}
}

func TestCADTrojanNoSolidBody(t *testing.T) {
	p := &brep.Part{Name: "empty"}
	if err := CADTrojanAttack(p, nil); err == nil {
		t.Error("expected error for part without solid prism")
	}
}

func TestPorosityAndEnvelopeAttacks(t *testing.T) {
	pl := DefaultPipeline()
	run, err := pl.ExecuteCtx(context.Background(), barPart(t))
	if err != nil {
		t.Fatal(err)
	}
	env := gcode.DimensionEliteEnvelope()
	// Porosity: detected by compare-against-reference.
	tampered := &gcode.Program{Name: run.GCode.Name,
		Commands: append([]gcode.Command{}, run.GCode.Commands...)}
	if err := PorosityAttack(tampered, 5); err != nil {
		t.Fatal(err)
	}
	d, err := gcode.Compare(run.GCode, tampered, env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Equivalent(1e-3) {
		t.Error("porosity attack not detected")
	}
	if err := PorosityAttack(tampered, 0); err == nil {
		t.Error("expected error for step < 2")
	}
	// Envelope: detected by limit-switch simulation.
	EnvelopeAttack(tampered)
	rep, err := gcode.SimulateCtx(context.Background(), tampered, env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("envelope attack not detected")
	}
}

func TestCatalogComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, a := range Catalog() {
		if a.ID == "" || a.Name == "" || a.Description == "" {
			t.Errorf("incomplete catalog entry: %+v", a)
		}
		if ids[a.ID] {
			t.Errorf("duplicate attack ID %q", a.ID)
		}
		ids[a.ID] = true
	}
}
