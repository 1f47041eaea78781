package voxel

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"obfuscade/internal/geom"
)

// componentsFlood is the voxel flood fill that Components' x-run labelling
// replaced, kept as its oracle: a depth-first fill from each unvisited
// voxel in z, y, x scan order, then a stable sort by descending size.
func componentsFlood(g *Grid, m Material) []Component {
	visited := make([]bool, len(g.cells))
	var comps []Component
	var stack [][3]int
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				i := g.idx(x, y, z)
				if visited[i] || g.cells[i] != m {
					continue
				}
				comp := Component{
					Material: m,
					MinV:     [3]int{x, y, z},
					MaxV:     [3]int{x, y, z},
					Seed:     [3]int{x, y, z},
				}
				stack = append(stack[:0], [3]int{x, y, z})
				visited[i] = true
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp.Voxels++
					for d := 0; d < 3; d++ {
						comp.MinV[d] = min(comp.MinV[d], v[d])
						comp.MaxV[d] = max(comp.MaxV[d], v[d])
					}
					if v[0] == 0 || v[1] == 0 || v[2] == 0 ||
						v[0] == g.NX-1 || v[1] == g.NY-1 || v[2] == g.NZ-1 {
						comp.TouchesBoundary = true
					}
					for _, d := range [6][3]int{
						{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1},
					} {
						nx, ny, nz := v[0]+d[0], v[1]+d[1], v[2]+d[2]
						if !g.In(nx, ny, nz) {
							continue
						}
						ni := g.idx(nx, ny, nz)
						if visited[ni] || g.cells[ni] != m {
							continue
						}
						visited[ni] = true
						stack = append(stack, [3]int{nx, ny, nz})
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].Voxels > comps[j-1].Voxels; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// randomGrid fills a grid of the given size with random materials at a
// random density, sometimes as random boxes (large components, cavities,
// equal-size ties) rather than independent voxels.
func randomGrid(t *testing.T, rng *rand.Rand, nx, ny, nz int) *Grid {
	g := newTestGrid(t, nx, ny, nz)
	mats := []Material{Empty, Model, Support}
	if rng.Intn(2) == 0 {
		p := rng.Float64()
		for i := range g.cells {
			if rng.Float64() < p {
				g.cells[i] = mats[rng.Intn(3)]
			}
		}
		return g
	}
	for b := 0; b < 1+rng.Intn(12); b++ {
		lo := [3]int{rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)}
		hi := [3]int{lo[0] + rng.Intn(nx-lo[0]), lo[1] + rng.Intn(ny-lo[1]), lo[2] + rng.Intn(nz-lo[2])}
		fillBox(g, lo, hi, mats[rng.Intn(3)])
	}
	return g
}

// Components must equal the flood fill, component for component and in
// the same order, for every material on random grids, including grids
// one voxel thick along any axis.
func TestComponentsMatchFloodRandomGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7077))
	dims := [][3]int{{1, 1, 1}, {1, 7, 5}, {9, 1, 6}, {8, 5, 1}, {1, 1, 12}, {13, 1, 1}}
	for trial := 0; trial < 300; trial++ {
		d := [3]int{1 + rng.Intn(14), 1 + rng.Intn(14), 1 + rng.Intn(10)}
		if trial < len(dims) {
			d = dims[trial]
		}
		g := randomGrid(t, rng, d[0], d[1], d[2])
		for _, m := range []Material{Empty, Model, Support} {
			got, want := g.Components(m), componentsFlood(g, m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%dx%dx%d) %s: components differ from the flood fill\ngot  %+v\nwant %+v",
					trial, d[0], d[1], d[2], m, got, want)
			}
		}
	}
}

// Components shares no state between calls: repeated calls on the same
// grid return identical component lists, including under concurrent use
// from many goroutines (tier-2 runs this with -race).
func TestComponentsConcurrent(t *testing.T) {
	g, err := NewGrid(geom.AABB{Min: geom.V3(0, 0, 0), Max: geom.V3(10, 10, 10)}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Solid block with two internal cavities of different sizes.
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				g.Set(x, y, z, Model)
			}
		}
	}
	g.Set(2, 2, 2, Empty)
	g.Set(5, 5, 5, Empty)
	g.Set(5, 5, 6, Empty)

	want := g.Components(Empty)
	if len(want) != 2 || want[0].Voxels != 2 || want[1].Voxels != 1 {
		t.Fatalf("unexpected baseline components: %+v", want)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				got := g.Components(Empty)
				if len(got) != len(want) {
					t.Errorf("worker %d: %d components, want %d", w, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("worker %d: component %d = %+v, want %+v", w, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
