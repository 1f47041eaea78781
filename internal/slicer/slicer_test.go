package slicer

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
	"obfuscade/internal/tessellate"
)

func boxMesh(min, max geom.Vec3) *mesh.Mesh {
	return &mesh.Mesh{Shells: []mesh.Shell{mesh.BoxShell("box", "box", min, max)}}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.LayerHeight = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero layer height")
	}
	bad = DefaultOptions()
	bad.RoadWidth = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative road width")
	}
	bad = DefaultOptions()
	bad.SnapTol = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero snap tolerance")
	}
}

// Parallel per-layer slicing must produce a layer stack identical to the
// serial baseline, including contour order and interface analysis.
func TestSliceParallelMatchesSerial(t *testing.T) {
	defer parallel.SetDefault(0)
	part, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	s, err := brep.SplitSplineThroughGauge(brep.DefaultTensileBar(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := brep.SplitBySpline(part, "bar", s); err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(part, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetDefault(1)
	serial, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetDefault(8)
	par, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Layers) != len(par.Layers) {
		t.Fatalf("layer counts differ: %d vs %d", len(serial.Layers), len(par.Layers))
	}
	for i := range serial.Layers {
		if !reflect.DeepEqual(serial.Layers[i], par.Layers[i]) {
			t.Fatalf("layer %d differs between serial and parallel slicing", i)
		}
	}
}

func TestSliceBoxLayers(t *testing.T) {
	m := boxMesh(geom.V3(0, 0, 0), geom.V3(10, 5, 3.2))
	opts := DefaultOptions()
	res, err := SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(3.2 / opts.LayerHeight))
	if len(res.Layers) != want {
		t.Errorf("layers = %d, want %d", len(res.Layers), want)
	}
	for i := range res.Layers {
		l := &res.Layers[i]
		if len(l.Contours) != 1 {
			t.Fatalf("layer %d contours = %d, want 1", i, len(l.Contours))
		}
		c := l.Contours[0]
		if !c.Closed {
			t.Errorf("layer %d contour open", i)
		}
		if !c.Poly.IsCCW() {
			t.Errorf("layer %d outward contour should wind CCW", i)
		}
		if !geom.ApproxEq(c.Poly.Area(), 50, 1e-6) {
			t.Errorf("layer %d area = %v, want 50", i, c.Poly.Area())
		}
		if !l.Material(geom.V2(5, 2.5)) {
			t.Errorf("layer %d: interior should be material", i)
		}
		if l.Material(geom.V2(20, 2.5)) {
			t.Errorf("layer %d: exterior should not be material", i)
		}
	}
	if len(res.BodyNames) != 1 || res.BodyNames[0] != "box" {
		t.Errorf("BodyNames = %v", res.BodyNames)
	}
}

func TestSliceCavityVoid(t *testing.T) {
	outer := mesh.BoxShell("outer", "host", geom.V3(0, 0, 0), geom.V3(10, 10, 10))
	inner := mesh.BoxShell("cavity", "host", geom.V3(3, 3, 3), geom.V3(7, 7, 7))
	inner.FlipOrientation()
	inner.Orient = mesh.Inward
	m := &mesh.Mesh{Shells: []mesh.Shell{outer, inner}}
	res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := &res.Layers[len(res.Layers)/2]
	if len(mid.Contours) != 2 {
		t.Fatalf("mid layer contours = %d, want 2", len(mid.Contours))
	}
	if mid.Material(geom.V2(5, 5)) {
		t.Error("cavity interior should not be material")
	}
	if !mid.Material(geom.V2(1.5, 5)) {
		t.Error("annulus should be material")
	}
	if w := mid.SignedWinding(geom.V2(5, 5)); w != 0 {
		t.Errorf("cavity winding = %d, want 0", w)
	}
}

// The slicer-level reproduction of Table 3: material decision at the
// sphere centre for the four CAD variants.
func TestSphereVariantsMaterialRule(t *testing.T) {
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	const r = 3.175

	variant := func(opts brep.EmbedOpts) *Result {
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
		res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cases := []struct {
		name     string
		opts     brep.EmbedOpts
		material bool // expected at sphere centre
	}{
		{"solid-no-removal", brep.EmbedOpts{}, false},
		{"surface-no-removal", brep.EmbedOpts{SurfaceBody: true}, false},
		{"solid-removal", brep.EmbedOpts{MaterialRemoval: true}, true},
		{"surface-removal", brep.EmbedOpts{MaterialRemoval: true, SurfaceBody: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := variant(tc.opts)
			// Find the layer crossing the sphere centre.
			var layer *Layer
			for i := range res.Layers {
				if math.Abs(res.Layers[i].Z-c.Z) <= res.Opts.LayerHeight/2 {
					layer = &res.Layers[i]
					break
				}
			}
			if layer == nil {
				t.Fatal("no layer at sphere centre")
			}
			centre := geom.V2(c.X, c.Y)
			if got := layer.Material(centre); got != tc.material {
				t.Errorf("material at centre = %t, want %t (winding %d)",
					got, tc.material, layer.SignedWinding(centre))
			}
			// The prism interior away from the sphere is always material.
			if !layer.Material(geom.V2(3, 6.35)) {
				t.Error("prism interior should be material")
			}
		})
	}
}

func buildSplitBar(t *testing.T, res tessellate.Resolution) *mesh.Mesh {
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
	return m
}

// orientXZ stands the mesh on its long edge: the x-z print orientation of
// paper Fig. 6 (rotate about X so the width becomes the build direction).
func orientXZ(m *mesh.Mesh) {
	m.Transform(geom.RotateX(math.Pi / 2))
	b := m.Bounds()
	m.Transform(geom.Translate(geom.V3(0, 0, -b.Min.Z).Add(geom.V3(0, -b.Min.Y, 0))))
}

func TestSplitBarXYAlwaysBridged(t *testing.T) {
	for _, res := range tessellate.Presets() {
		m := buildSplitBar(t, res)
		sliced, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		frac := sliced.DiscontinuousLayerFraction("bar-upper", "bar-lower")
		if frac != 0 {
			t.Errorf("%s: x-y discontinuous fraction = %g, want 0", res.Name, frac)
		}
		st := sliced.InterfaceStatsBetween("bar-upper", "bar-lower")
		if st.Layers == 0 {
			t.Fatalf("%s: no interface found", res.Name)
		}
		// Void width bounded by ~2x the chordal deviation plus probing
		// slack.
		if st.MaxWidth > 3*res.Deviation+1e-3 {
			t.Errorf("%s: max void width %g exceeds 3x deviation %g",
				res.Name, st.MaxWidth, res.Deviation)
		}
	}
}

func TestSplitBarXZDiscontinuousAllResolutions(t *testing.T) {
	for _, res := range tessellate.Presets() {
		m := buildSplitBar(t, res)
		orientXZ(m)
		sliced, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		frac := sliced.DiscontinuousLayerFraction("bar-upper", "bar-lower")
		if frac < 0.15 {
			t.Errorf("%s: x-z discontinuous fraction = %g, want >= 0.15", res.Name, frac)
		}
	}
}

func TestIntactBarNoInterfaces(t *testing.T) {
	p, err := brep.NewTensileBar("bar", brep.DefaultTensileBar())
	if err != nil {
		t.Fatal(err)
	}
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sliced.Layers {
		if len(sliced.Layers[i].Interfaces) != 0 {
			t.Fatalf("layer %d has unexpected interfaces", i)
		}
	}
}

func TestRasterizeBox(t *testing.T) {
	m := boxMesh(geom.V3(0, 0, 0), geom.V3(10, 5, 1))
	res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := &res.Layers[0]
	r, err := l.Rasterize(geom.V2(-1, -1), geom.V2(11, 6), 0.25, res.BodyNames)
	if err != nil {
		t.Fatal(err)
	}
	area := float64(r.CountClass(Model)) * 0.25 * 0.25
	if math.Abs(area-50) > 2 {
		t.Errorf("raster model area = %v, want ~50", area)
	}
	// Owner bit set inside.
	ix := int((5.0 - r.Origin.X) / r.Cell)
	iy := int((2.5 - r.Origin.Y) / r.Cell)
	if r.OwnerAt(ix, iy) != 1 {
		t.Errorf("owner at centre = %b, want bit 0", r.OwnerAt(ix, iy))
	}
	if r.At(0, 0) != Empty {
		t.Error("corner should be empty")
	}
}

func TestRasterizeErrors(t *testing.T) {
	m := boxMesh(geom.V3(0, 0, 0), geom.V3(1, 1, 1))
	res, _ := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	l := &res.Layers[0]
	if _, err := l.Rasterize(geom.V2(0, 0), geom.V2(1, 1), 0, nil); err == nil {
		t.Error("expected error for zero cell")
	}
	if _, err := l.Rasterize(geom.V2(1, 1), geom.V2(0, 0), 0.1, nil); err == nil {
		t.Error("expected error for inverted bounds")
	}
}

func TestToolpathsBox(t *testing.T) {
	m := boxMesh(geom.V3(0, 0, 0), geom.V3(10, 5, 1))
	res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(res.Layers) {
		t.Fatalf("toolpath layers = %d, want %d", len(paths), len(res.Layers))
	}
	total := TotalExtruded(paths)
	// Expected extrusion ~ layers x (perimeter 30 + infill area/road 50/0.5).
	expect := float64(len(paths)) * (30 + 50/res.Opts.RoadWidth)
	if total < 0.5*expect || total > 1.5*expect {
		t.Errorf("total extruded = %v, want ~%v", total, expect)
	}
	// Both infill directions should occur (alternating layers).
	sawPerimeter, sawInfill := false, false
	for _, p := range paths {
		for _, mv := range p.Moves {
			switch mv.Role {
			case Perimeter:
				sawPerimeter = true
				if mv.Body != "box" {
					t.Fatalf("perimeter body = %q", mv.Body)
				}
			case Infill:
				sawInfill = true
			}
		}
	}
	if !sawPerimeter || !sawInfill {
		t.Error("expected both perimeter and infill moves")
	}
	lo, hi := PathBounds(paths)
	if lo.X < -1 || hi.X > 11 {
		t.Errorf("path bounds out of range: %v %v", lo, hi)
	}
}

func TestMoveRoleString(t *testing.T) {
	if Travel.String() != "travel" || Support.String() != "support" {
		t.Error("MoveRole.String misbehaves")
	}
	if Perimeter.String() != "perimeter" || Infill.String() != "infill" {
		t.Error("MoveRole.String misbehaves")
	}
}

func TestSliceEmptyMesh(t *testing.T) {
	if _, err := SliceIndexedCtx(context.Background(), &mesh.Mesh{}, DefaultOptions(), nil); err == nil {
		t.Error("expected error for empty mesh")
	}
}

func TestSliceSTLRoundTripComponents(t *testing.T) {
	// After an STL round trip the body provenance is gone; edge-component
	// splitting recovers two separable bodies whose slicing matches.
	m := buildSplitBar(t, tessellate.Coarse)
	soup := mesh.Shell{Name: "import"}
	for _, s := range m.Shells {
		soup.Tris = append(soup.Tris, s.Tris...)
	}
	comps := soup.SplitEdgeComponents(1e-7)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	m2 := &mesh.Mesh{Shells: comps}
	sliced, err := SliceIndexedCtx(context.Background(), m2, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sliced.BodyNames) != 2 {
		t.Fatalf("BodyNames = %v", sliced.BodyNames)
	}
	frac := sliced.DiscontinuousLayerFraction(sliced.BodyNames[0], sliced.BodyNames[1])
	if frac != 0 {
		t.Errorf("x-y recovered-component discontinuity = %g, want 0", frac)
	}
}

// Regression: a deadline must interrupt slicing mid-stage. The layer
// tasks receive the worker context and check it between shells, so even
// a serial (1-worker) pool aborts promptly instead of slicing the whole
// stack to the stage boundary.
func TestSliceCtxCancellation(t *testing.T) {
	m := boxMesh(geom.V3(0, 0, 0), geom.V3(10, 5, 50)) // a few hundred layers
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		parallel.SetDefault(workers)
		res, err := SliceIndexedCtx(ctx, m, DefaultOptions(), nil)
		parallel.SetDefault(0)
		if err == nil {
			t.Fatalf("workers=%d: cancelled slice succeeded with %d layers",
				workers, len(res.Layers))
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// OwnerAt returns the owner bitmask at (ix, iy).
func (r *Raster) OwnerAt(ix, iy int) uint32 {
	if ix < 0 || iy < 0 || ix >= r.NX || iy >= r.NY {
		return 0
	}
	return r.Owner[iy*r.NX+ix]
}

// CountClass returns the number of cells with the given class.
func (r *Raster) CountClass(c CellClass) int {
	n := 0
	for _, v := range r.Class {
		if v == c {
			n++
		}
	}
	return n
}

// PathBounds returns the 2D bounding box of all extruding moves.
func PathBounds(paths []*LayerToolpath) (geom.Vec2, geom.Vec2) {
	lo := geom.V2(math.Inf(1), math.Inf(1))
	hi := geom.V2(math.Inf(-1), math.Inf(-1))
	for _, p := range paths {
		for _, m := range p.Moves {
			if m.Role == Travel {
				continue
			}
			for _, q := range [2]geom.Vec2{m.From, m.To} {
				lo.X = math.Min(lo.X, q.X)
				lo.Y = math.Min(lo.Y, q.Y)
				hi.X = math.Max(hi.X, q.X)
				hi.Y = math.Max(hi.Y, q.Y)
			}
		}
	}
	return lo, hi
}
