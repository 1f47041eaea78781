package voxel

import (
	"testing"

	"obfuscade/internal/geom"
)

func testBounds() geom.AABB {
	return geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(4, 3, 2)}
}

// Recycled grids must come back fully zeroed: a dirty freelist would
// materialise phantom voxels in the next build.
func TestGridReleaseRecyclesZeroed(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g.NX; x++ {
		g.Set(x, 1, 1, Model)
	}
	g.Release()
	if g.cells != nil {
		t.Fatal("Release left cells attached")
	}
	g.Release() // double release is a no-op
	ng, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := ng.Count(Model) + ng.Count(Support); n != 0 {
		t.Fatalf("recycled grid has %d stale voxels", n)
	}
}

// Using a released grid must fail loudly, not read recycled memory.
func TestReleasedGridPanics(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	defer func() {
		if recover() == nil {
			t.Error("Set on a released grid did not panic")
		}
	}()
	g.Set(0, 0, 0, Model)
}

// Clone must allocate independent storage even when drawing from the
// freelist, and a released clone must not corrupt the original.
func TestCloneIndependentOfFreelist(t *testing.T) {
	g, err := NewGrid(testBounds(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(1, 1, 1, Model)
	c := g.Clone()
	c.Set(1, 1, 1, Support)
	if g.At(1, 1, 1) != Model {
		t.Fatal("clone shares storage with original")
	}
	c.Release()
	if g.At(1, 1, 1) != Model {
		t.Fatal("releasing the clone corrupted the original")
	}
}
