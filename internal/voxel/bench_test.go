package voxel

import (
	"math"
	"testing"

	"obfuscade/internal/geom"
)

// Cavity-check benchmarks: x-run labelling vs the flood-fill oracle on a
// grid the size of a quality-matrix build (660 x 76 x 18 voxels): a bar
// of model material with a washed-out spherical cavity, in empty space.
// Components(Empty) is what core.GradeBuild runs per key.
//
//	go test ./internal/voxel -bench 'BenchmarkComponents' -run '^$' -benchmem

func benchGrid(b *testing.B) *Grid {
	b.Helper()
	g, err := NewGrid(geom.AABB{Max: geom.V3(659.5, 75.5, 17.5)}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for z := 2; z < 16; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 10; x < 650; x++ {
				// A dog-bone: full width at the grips, narrower gauge.
				half := 35.0
				if x > 150 && x < 510 {
					half = 18
				}
				if math.Abs(float64(y)-37.5) < half {
					g.Set(x, y, z, Model)
				}
			}
		}
	}
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				dx, dy, dz := float64(x)-330, float64(y)-37.5, float64(z)-9
				if dx*dx+dy*dy+dz*dz < 36 {
					g.Set(x, y, z, Empty)
				}
			}
		}
	}
	return g
}

func BenchmarkComponents(b *testing.B) {
	g := benchGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Components(Empty)) != 2 {
			b.Fatal("want the exterior and one cavity")
		}
	}
}

func BenchmarkComponentsFlood(b *testing.B) {
	g := benchGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(componentsFlood(g, Empty)) != 2 {
			b.Fatal("want the exterior and one cavity")
		}
	}
}
