package printer

import (
	"context"
	"math"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
	"obfuscade/internal/tessellate"
	"obfuscade/internal/voxel"
)

func sliceMesh(t *testing.T, m *mesh.Mesh, layerHeight float64) *slicer.Result {
	t.Helper()
	opts := slicer.DefaultOptions()
	opts.LayerHeight = layerHeight
	res, err := slicer.SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{DimensionElite(), Objet30Pro()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if DimensionElite().LayerHeight != 0.1778 {
		t.Error("FDM layer height should be 0.1778 mm (paper §3.1)")
	}
	if Objet30Pro().LayerHeight != 0.016 {
		t.Error("PolyJet layer height should be 16 µm (paper §3.1)")
	}
	bad := DimensionElite()
	bad.RoadWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero road width")
	}
	bad = DimensionElite()
	bad.HealFraction = 2
	if err := bad.Validate(); err == nil {
		t.Error("expected error for HealFraction > 1")
	}
}

func TestPrintBoxVolume(t *testing.T) {
	prof := DimensionElite()
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(20, 10, 3.556)),
	}}
	sliced := sliceMesh(t, m, prof.LayerHeight)
	b, err := PrintCtx(context.Background(), sliced, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 20 * 10 * 3.556
	if math.Abs(b.ModelVolume-want)/want > 0.08 {
		t.Errorf("model volume = %v, want ~%v", b.ModelVolume, want)
	}
	if b.SupportVolume > 0.05*want {
		t.Errorf("box should need almost no support, got %v", b.SupportVolume)
	}
	if b.LayerCount != len(sliced.Layers) {
		t.Errorf("layer count = %d", b.LayerCount)
	}
	if len(b.Seams) != 0 {
		t.Errorf("box should have no seams: %v", b.Seams)
	}
	// Washed grid has no support left.
	if b.Grid.Count(voxel.Support) != 0 {
		t.Error("support should be washed out by default")
	}
}

func TestPrintLayerHeightMismatch(t *testing.T) {
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(5, 5, 2)),
	}}
	sliced := sliceMesh(t, m, 0.25)
	if _, err := PrintCtx(context.Background(), sliced, DimensionElite(), Options{}); err == nil {
		t.Error("expected error for layer height mismatch")
	}
}

// The Table 3 / Fig. 10 reproduction at printer level: what material ends
// up inside the embedded sphere for each CAD variant.
func TestEmbeddedSpherePrinting(t *testing.T) {
	prof := DimensionElite()
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	const r = 3.175

	buildVariant := func(t *testing.T, opts brep.EmbedOpts, keepSupport bool) *Build {
		t.Helper()
		p, err := brep.NewRectPrism("prism", size)
		if err != nil {
			t.Fatal(err)
		}
		if err := brep.EmbedSphere(p, "prism", c, r, opts); err != nil {
			t.Fatal(err)
		}
		m, err := tessellate.Tessellate(p, tessellate.Fine)
		if err != nil {
			t.Fatal(err)
		}
		sliced := sliceMesh(t, m, prof.LayerHeight)
		b, err := PrintCtx(context.Background(), sliced, prof, Options{KeepSupport: keepSupport})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	probe := func(b *Build) voxel.Material {
		x, y, z := b.Grid.Locate(c)
		return b.Grid.At(x, y, z)
	}

	cases := []struct {
		name string
		opts brep.EmbedOpts
		want voxel.Material // material at sphere centre, support kept
	}{
		{"solid-no-removal", brep.EmbedOpts{}, voxel.Support},
		{"surface-no-removal", brep.EmbedOpts{SurfaceBody: true}, voxel.Support},
		{"solid-removal", brep.EmbedOpts{MaterialRemoval: true}, voxel.Model},
		{"surface-removal", brep.EmbedOpts{MaterialRemoval: true, SurfaceBody: true}, voxel.Support},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := buildVariant(t, tc.opts, true)
			if got := probe(b); got != tc.want {
				t.Errorf("material at sphere centre = %v, want %v", got, tc.want)
			}
		})
	}

	// Fig. 10c: washing out the support leaves a detectable internal
	// cavity; CT-style inspection finds it (authentication).
	washed := buildVariant(t, brep.EmbedOpts{}, false)
	cavities := washed.Grid.InternalCavities()
	if len(cavities) != 1 {
		t.Fatalf("cavities after wash = %d, want 1", len(cavities))
	}
	sphVol := 4.0 / 3 * math.Pi * r * r * r
	gotVol := float64(cavities[0].Voxels) * washed.Grid.VoxelVolume()
	if math.Abs(gotVol-sphVol)/sphVol > 0.30 {
		t.Errorf("cavity volume = %v, want ~%v", gotVol, sphVol)
	}
	// Fig. 10d: solid-removal prints fully dense — no internal cavity.
	dense := buildVariant(t, brep.EmbedOpts{MaterialRemoval: true}, false)
	if n := len(dense.Grid.InternalCavities()); n != 0 {
		t.Errorf("solid-removal print has %d cavities, want 0", n)
	}
}

func buildSplitBar(t *testing.T, res tessellate.Resolution, xz bool) *Build {
	t.Helper()
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := brep.SplitBySpline(p, "bar", s); err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, res)
	if err != nil {
		t.Fatal(err)
	}
	if xz {
		m.Transform(geom.RotateX(math.Pi / 2))
		b := m.Bounds()
		m.Transform(geom.Translate(geom.V3(0, -b.Min.Y, -b.Min.Z)))
	}
	prof := DimensionElite()
	sliced := sliceMesh(t, m, prof.LayerHeight)
	b, err := PrintCtx(context.Background(), sliced, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSplitBarSeamQuality(t *testing.T) {
	// Coarse x-y: visible surface disruption, weak-ish but healed seam.
	coarseXY := buildSplitBar(t, tessellate.Coarse, false)
	seamXY := coarseXY.SeamBetween("bar-upper", "bar-lower")
	if seamXY == nil {
		t.Fatal("x-y seam missing")
	}
	if !coarseXY.SurfaceDisrupted() {
		t.Errorf("coarse x-y should show surface disruption (width %g)", coarseXY.SurfaceDisruption)
	}
	if seamXY.DiscontinuousFraction != 0 {
		t.Errorf("x-y seam discontinuous fraction = %g", seamXY.DiscontinuousFraction)
	}

	// Custom x-y: clean surface, stronger seam.
	customXY := buildSplitBar(t, tessellate.Custom, false)
	if customXY.SurfaceDisrupted() {
		t.Errorf("custom x-y should look intact (width %g)", customXY.SurfaceDisruption)
	}
	seamCustom := customXY.SeamBetween("bar-upper", "bar-lower")
	if seamCustom.BondQuality <= seamXY.BondQuality {
		t.Errorf("custom x-y bond (%g) should beat coarse x-y (%g)",
			seamCustom.BondQuality, seamXY.BondQuality)
	}

	// x-z: discontinuous layers at every resolution -> much weaker seam.
	for _, res := range tessellate.Presets() {
		xz := buildSplitBar(t, res, true)
		seamXZ := xz.SeamBetween("bar-upper", "bar-lower")
		if seamXZ == nil {
			t.Fatalf("%s: x-z seam missing", res.Name)
		}
		if seamXZ.DiscontinuousFraction < 0.15 {
			t.Errorf("%s: x-z discontinuous fraction = %g, want >= 0.15",
				res.Name, seamXZ.DiscontinuousFraction)
		}
		if seamXZ.BondQuality >= seamCustom.BondQuality {
			t.Errorf("%s: x-z bond (%g) should be weaker than custom x-y (%g)",
				res.Name, seamXZ.BondQuality, seamCustom.BondQuality)
		}
	}
}

func TestIntactBarNoSeams(t *testing.T) {
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	prof := DimensionElite()
	sliced := sliceMesh(t, m, prof.LayerHeight)
	b, err := PrintCtx(context.Background(), sliced, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Seams) != 0 {
		t.Errorf("intact bar seams = %v", b.Seams)
	}
	if b.SurfaceDisrupted() {
		t.Error("intact bar should not be disrupted")
	}
}

func TestBondQualityMonotonicity(t *testing.T) {
	prof := DimensionElite()
	narrow := slicer.InterfaceStats{MaxWidth: 0.01, Layers: 10}
	wide := slicer.InterfaceStats{MaxWidth: 0.2, Layers: 10}
	if bondQuality(prof, narrow, 0) <= bondQuality(prof, wide, 0) {
		t.Error("narrower voids should bond better")
	}
	if bondQuality(prof, narrow, 0) <= bondQuality(prof, narrow, 0.5) {
		t.Error("discontinuous layers should weaken the seam")
	}
	if q := bondQuality(prof, slicer.InterfaceStats{MaxWidth: 10}, 1); q < 0 || q > 1 {
		t.Errorf("bond quality out of range: %g", q)
	}
	// A coincident (zero-width) interface bonds perfectly.
	if q := bondQuality(prof, slicer.InterfaceStats{MaxWidth: 0}, 0); q != 1 {
		t.Errorf("coincident interface bond = %g, want 1", q)
	}
}
