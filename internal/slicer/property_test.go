package slicer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
	"obfuscade/internal/tessellate"
)

// Property: every layer of a sliced axis-aligned box has exactly the
// box's footprint area, and the number of layers covers the height.
func TestSliceBoxAreaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	opts := DefaultOptions()
	for trial := 0; trial < 25; trial++ {
		w := 1 + rng.Float64()*30
		d := 1 + rng.Float64()*20
		h := 0.5 + rng.Float64()*5
		m := &mesh.Mesh{Shells: []mesh.Shell{
			mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(w, d, h)),
		}}
		res, err := SliceIndexedCtx(context.Background(), m, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantLayers := int(math.Ceil(h / opts.LayerHeight))
		if len(res.Layers) != wantLayers {
			t.Fatalf("trial %d: layers = %d, want %d", trial, len(res.Layers), wantLayers)
		}
		for li := range res.Layers {
			l := &res.Layers[li]
			var area float64
			for _, c := range l.Contours {
				if !c.Closed {
					t.Fatalf("trial %d layer %d: open contour", trial, li)
				}
				area += c.Poly.SignedArea()
			}
			// The final slice plane may land above the solid when the
			// height is not a multiple of the layer height; that layer
			// is legitimately empty.
			if li == len(res.Layers)-1 && len(l.Contours) == 0 && l.Z > h {
				continue
			}
			if math.Abs(area-w*d)/(w*d) > 1e-6 {
				t.Fatalf("trial %d layer %d: area %v, want %v", trial, li, area, w*d)
			}
		}
	}
}

// Property: slicing is invariant under in-plane translation.
func TestSliceTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := DefaultOptions()
	base := mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(7, 5, 2))
	ref, err := SliceIndexedCtx(context.Background(), &mesh.Mesh{Shells: []mesh.Shell{base}}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		dx := (rng.Float64() - 0.5) * 100
		dy := (rng.Float64() - 0.5) * 100
		m := &mesh.Mesh{Shells: []mesh.Shell{
			mesh.BoxShell("box", "box", geom.V3(dx, dy, 0), geom.V3(7+dx, 5+dy, 2)),
		}}
		moved, err := SliceIndexedCtx(context.Background(), m, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(moved.Layers) != len(ref.Layers) {
			t.Fatalf("trial %d: layer count changed", trial)
		}
		for li := range moved.Layers {
			if len(ref.Layers[li].Contours) == 0 && len(moved.Layers[li].Contours) == 0 {
				continue
			}
			if len(ref.Layers[li].Contours) == 0 || len(moved.Layers[li].Contours) == 0 {
				t.Fatalf("trial %d layer %d: contour presence differs", trial, li)
			}
			a := ref.Layers[li].Contours[0].Poly.Area()
			b := moved.Layers[li].Contours[0].Poly.Area()
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("trial %d layer %d: area %v vs %v", trial, li, a, b)
			}
		}
	}
}

// Property: the winding-rule material decision is consistent with the
// raster classification at cell centres.
func TestRasterMatchesPointClassification(t *testing.T) {
	outer := mesh.BoxShell("outer", "host", geom.V3(0, 0, 0), geom.V3(12, 10, 4))
	inner := mesh.BoxShell("cavity", "host", geom.V3(4, 4, 1), geom.V3(8, 7, 3))
	inner.FlipOrientation()
	inner.Orient = mesh.Inward
	m := &mesh.Mesh{Shells: []mesh.Shell{outer, inner}}
	res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := &res.Layers[len(res.Layers)/2]
	r, err := mid.Rasterize(geom.V2(-1, -1), geom.V2(13, 11), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for iy := 0; iy < r.NY; iy++ {
		for ix := 0; ix < r.NX; ix++ {
			p := r.Center(ix, iy)
			want := mid.Material(p)
			got := r.At(ix, iy) == Model
			if want != got {
				t.Fatalf("cell (%d,%d) at %v: raster %t vs point %t", ix, iy, p, got, want)
			}
		}
	}
}

// randomBoxMesh builds a randomized multi-shell, multi-body mesh: a few
// solid boxes (distinct bodies), sometimes with a flipped inward cavity
// inside, sometimes overlapping each other — the configurations whose
// chaining and winding behaviour the indexed kernels must reproduce.
func randomBoxMesh(rng *rand.Rand) *mesh.Mesh {
	m := &mesh.Mesh{}
	nBodies := 1 + rng.Intn(3)
	for bi := 0; bi < nBodies; bi++ {
		body := fmt.Sprintf("body%d", bi)
		ox := rng.Float64() * 14
		oy := rng.Float64() * 10
		w := 2 + rng.Float64()*10
		d := 2 + rng.Float64()*8
		h := 0.5 + rng.Float64()*3
		min := geom.V3(ox, oy, 0)
		max := geom.V3(ox+w, oy+d, h)
		m.Shells = append(m.Shells, mesh.BoxShell(body+"-outer", body, min, max))
		if rng.Float64() < 0.5 && w > 2 && d > 2 && h > 0.8 {
			inner := mesh.BoxShell(body+"-cavity", body,
				min.Add(geom.V3(w/4, d/4, h/4)),
				max.Sub(geom.V3(w/4, d/4, h/4)))
			inner.FlipOrientation()
			inner.Orient = mesh.Inward
			m.Shells = append(m.Shells, inner)
		}
	}
	return m
}

// Property: the indexed slicer is byte-identical to the naive full-rescan
// reference on randomized multi-shell meshes, both serial and on a pool.
func TestSliceMatchesNaiveRandomMeshes(t *testing.T) {
	defer parallel.SetDefault(0)
	const baseSeed = 0x5eed_0b5f
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		m := randomBoxMesh(rng)
		opts := DefaultOptions()
		want, err := sliceNaive(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			parallel.SetDefault(workers)
			got, err := SliceIndexedCtx(context.Background(), m, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (workers=%d): indexed slice differs from naive reference",
					trial, workers)
			}
		}
	}
}

// Property: the bucketed rasterizer is byte-identical to the naive
// per-row rescan on layers of randomized meshes, with and without body
// ownership tracking.
func TestRasterizeMatchesNaiveRandomMeshes(t *testing.T) {
	const baseSeed = 0x7a57e2
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		m := randomBoxMesh(rng)
		res, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := res.Bounds
		min := geom.V2(b.Min.X-1, b.Min.Y-1)
		max := geom.V2(b.Max.X+1, b.Max.Y+1)
		cell := 0.2 + rng.Float64()*0.4
		for _, li := range []int{0, len(res.Layers) / 2, len(res.Layers) - 1} {
			l := &res.Layers[li]
			for _, bodies := range [][]string{nil, res.BodyNames} {
				got, err := l.Rasterize(min, max, cell, bodies)
				if err != nil {
					t.Fatal(err)
				}
				want, err := rasterizeNaive(l, min, max, cell, bodies)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d layer %d (bodies=%v): raster differs from naive",
						trial, li, bodies)
				}
			}
		}
	}
}

// Golden: on the paper's split tensile bar, in both print orientations,
// the indexed kernels reproduce the naive reference exactly — including
// the discontinuous-layer fraction that drives Table 2.
func TestSliceMatchesNaiveSplitBarGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		orient func(*mesh.Mesh)
	}{
		{"xy", func(*mesh.Mesh) {}},
		{"xz", orientXZ},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildSplitBar(t, tessellate.Coarse)
			tc.orient(m)
			opts := DefaultOptions()
			got, err := SliceIndexedCtx(context.Background(), m, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sliceNaive(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("indexed slice differs from naive reference")
			}
			gf := got.DiscontinuousLayerFraction("bar-upper", "bar-lower")
			wf := want.DiscontinuousLayerFraction("bar-upper", "bar-lower")
			if gf != wf {
				t.Fatalf("discontinuous fraction %g != naive %g", gf, wf)
			}
		})
	}
}

// Golden: the four embedded-sphere CAD variants of Table 3 slice
// identically through the indexed and naive kernels, and the material
// decision at the sphere centre stays pinned to the table.
func TestSliceMatchesNaiveSphereVariantsGolden(t *testing.T) {
	size := geom.V3(25.4, 12.7, 12.7)
	c := geom.V3(12.7, 6.35, 6.35)
	const r = 3.175
	cases := []struct {
		name     string
		opts     brep.EmbedOpts
		material bool
	}{
		{"solid-no-removal", brep.EmbedOpts{}, false},
		{"solid-removal", brep.EmbedOpts{MaterialRemoval: true}, true},
		{"surface-removal", brep.EmbedOpts{MaterialRemoval: true, SurfaceBody: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := brep.NewRectPrism("prism", size)
			if err != nil {
				t.Fatal(err)
			}
			if err := brep.EmbedSphere(p, "prism", c, r, tc.opts); err != nil {
				t.Fatal(err)
			}
			m, err := tessellate.Tessellate(p, tessellate.Coarse)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sliceNaive(m, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("indexed slice differs from naive reference")
			}
			var layer *Layer
			for i := range got.Layers {
				if math.Abs(got.Layers[i].Z-c.Z) <= got.Opts.LayerHeight/2 {
					layer = &got.Layers[i]
					break
				}
			}
			if layer == nil {
				t.Fatal("no layer at sphere centre")
			}
			if m := layer.Material(geom.V2(c.X, c.Y)); m != tc.material {
				t.Errorf("material at centre = %t, want %t", m, tc.material)
			}
		})
	}
}
