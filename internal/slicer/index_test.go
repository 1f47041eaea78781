package slicer

import (
	"context"
	"math/rand"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/parallel"
)

// The sweep index must be complete (every triangle that transversally
// crosses a layer plane appears in that layer's bucket) and ordered
// (bucket entries ascend, matching the naive rescan's visiting order).
func TestSweepIndexCompleteAndOrdered(t *testing.T) {
	const baseSeed = 0x1d3a5eed
	opts := DefaultOptions()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(parallel.SplitMix(baseSeed, trial)))
		m := randomBoxMesh(rng)
		bounds := m.Bounds()
		nLayers := int((bounds.Max.Z - bounds.Min.Z) / opts.LayerHeight)
		if nLayers <= 0 {
			nLayers = 1
		}
		idx := buildSweepIndex(context.Background(), m, bounds.Min.Z, opts.LayerHeight, nLayers)
		for si := range m.Shells {
			shell := &m.Shells[si]
			for li := 0; li < nLayers; li++ {
				z := bounds.Min.Z + (float64(li)+0.5)*opts.LayerHeight
				bucket := idx.shells[si].layer(li)
				inBucket := make(map[int32]bool, len(bucket))
				prev := int32(-1)
				for _, ti := range bucket {
					if ti <= prev {
						t.Fatalf("trial %d shell %d layer %d: bucket not ascending", trial, si, li)
					}
					prev = ti
					inBucket[ti] = true
				}
				for ti, tr := range shell.Tris {
					if _, _, ok := tr.IntersectPlaneZ(z); ok && !inBucket[int32(ti)] {
						t.Fatalf("trial %d shell %d layer %d: crossing triangle %d missing from bucket",
							trial, si, li, ti)
					}
				}
			}
		}
	}
}

// layerSpan must be conservative: the returned range contains every layer
// whose plane lies strictly inside the z-interval.
func TestLayerSpanConservative(t *testing.T) {
	const (
		minZ    = 0.0
		h       = 0.25
		nLayers = 40
	)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		a := rng.Float64() * 10
		b := a + rng.Float64()*3
		lo, hi := layerSpan(a, b, minZ, h, nLayers)
		for l := 0; l < nLayers; l++ {
			z := minZ + (float64(l)+0.5)*h
			if a < z && z < b && (l < lo || l > hi) {
				t.Fatalf("trial %d: plane %g inside (%g,%g) but layer %d outside [%d,%d]",
					trial, z, a, b, l, lo, hi)
			}
		}
	}
}

// A zero-extent interval (horizontal facet) must not panic and may map to
// an empty or single-layer range.
func TestLayerSpanDegenerate(t *testing.T) {
	lo, hi := layerSpan(1.0, 1.0, 0, 0.25, 10)
	if lo < 0 || hi > 9 {
		t.Fatalf("degenerate span [%d,%d] out of clamp range", lo, hi)
	}
}

// An injected prebuilt index must yield exactly the inline result, and an
// incompatible index must be rejected (counted) and rebuilt — wrong
// injection may cost time, never correctness.
func TestSliceIndexedMatchesInline(t *testing.T) {
	ctx := context.Background()
	opts := DefaultOptions()
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(5, 4, 3)),
	}}
	inline, err := SliceIndexedCtx(ctx, m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ctx, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SizeBytes() <= 0 {
		t.Error("index reports non-positive size")
	}
	injected, err := SliceIndexedCtx(ctx, m, opts, ix)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, inline, injected, "injected")

	// An index built for a different mesh fails the guard and triggers an
	// inline rebuild with identical output.
	other := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("tall", "tall", geom.V3(0, 0, 0), geom.V3(2, 2, 9)),
	}}
	foreign, err := BuildIndex(ctx, other, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := mIndexRejected.Value()
	rebuilt, err := SliceIndexedCtx(ctx, m, opts, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if got := mIndexRejected.Value() - before; got != 1 {
		t.Errorf("rejected counter advanced by %d, want 1", got)
	}
	assertSameResult(t, inline, rebuilt, "rebuilt after rejection")
}

func assertSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: layer count %d != %d", label, len(got.Layers), len(want.Layers))
	}
	for li := range got.Layers {
		a, b := want.Layers[li], got.Layers[li]
		if a.Z != b.Z || len(a.Contours) != len(b.Contours) {
			t.Fatalf("%s: layer %d differs", label, li)
		}
		for ci := range a.Contours {
			ap, bp := a.Contours[ci].Poly, b.Contours[ci].Poly
			if len(ap) != len(bp) {
				t.Fatalf("%s: layer %d contour %d point count differs", label, li, ci)
			}
			for pi := range ap {
				if ap[pi] != bp[pi] {
					t.Fatalf("%s: layer %d contour %d point %d differs", label, li, ci, pi)
				}
			}
		}
	}
}

// The pooled chain scratch must not leak state between uses: slicing the
// same mesh twice through the pool yields identical results.
func TestChainScratchReuse(t *testing.T) {
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(5, 4, 1)),
	}}
	first, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := SliceIndexedCtx(context.Background(), m, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Layers) != len(first.Layers) {
			t.Fatal("layer count changed on scratch reuse")
		}
		for li := range again.Layers {
			if len(again.Layers[li].Contours) != len(first.Layers[li].Contours) {
				t.Fatalf("layer %d contours changed on scratch reuse", li)
			}
		}
	}
}
