package slicer

import (
	"context"
	"testing"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

func TestMultiplePerimeters(t *testing.T) {
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(20, 10, 0.5)),
	}}
	lengths := map[int]float64{}
	for _, walls := range []int{1, 2, 3} {
		opts := DefaultOptions()
		opts.Perimeters = walls
		res, err := SliceIndexedCtx(context.Background(), m, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := res.Toolpaths()
		if err != nil {
			t.Fatal(err)
		}
		var perim float64
		for _, lt := range paths {
			for _, mv := range lt.Moves {
				if mv.Role == Perimeter {
					perim += mv.Len()
				}
			}
		}
		lengths[walls] = perim
	}
	// Each extra wall adds a loop slightly smaller than the outline
	// (60mm outline; the w-th inset loses 8*roadWidth per wall).
	if lengths[2] <= lengths[1]*1.5 || lengths[3] <= lengths[2] {
		t.Errorf("perimeter lengths should grow with wall count: %v", lengths)
	}
}

func TestPerimetersNarrowRegionFallback(t *testing.T) {
	// A sliver thinner than 2 road widths cannot hold a second wall.
	m := &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(20, 0.8, 0.5)),
	}}
	opts := DefaultOptions()
	opts.Perimeters = 3
	res, err := SliceIndexedCtx(context.Background(), m, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := res.Toolpaths()
	if err != nil {
		t.Fatal(err)
	}
	// Should still produce exactly one wall per contour, no panic.
	loops := 0
	for _, mv := range paths[0].Moves {
		if mv.Role == Perimeter && mv.To == paths[0].Moves[0].To {
			loops++
		}
	}
	if loops == 0 {
		t.Error("no perimeter found")
	}
}

func TestPerimetersValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Perimeters = -1
	if err := opts.Validate(); err == nil {
		t.Error("expected error for negative perimeters")
	}
	opts.Perimeters = 99
	if err := opts.Validate(); err == nil {
		t.Error("expected error for absurd perimeter count")
	}
}
