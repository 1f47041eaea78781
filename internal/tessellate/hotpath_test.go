package tessellate

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

func testRevolve() *brep.Revolve {
	return &brep.Revolve{
		X0: 0, X1: 12,
		Axis:   geom.V2(0.5, -0.25),
		Breaks: []float64{4, 8},
		Radius: func(x float64) float64 {
			switch {
			case x < 4:
				return 2
			case x < 8:
				return 1.2 + 0.3*math.Sin(x)
			default:
				return 2.5
			}
		},
	}
}

// tessellateRevolveReference is the straightforward per-point trig
// implementation, retained as the oracle for tessellateRevolve's
// bit-identity property test.
func tessellateRevolveReference(r *brep.Revolve, name, bodyName string, res Resolution) (mesh.Shell, error) {
	stations, nTheta, err := revolveStations(r, res)
	if err != nil {
		return mesh.Shell{}, err
	}
	ringPoint := func(st station, j int) geom.Vec3 {
		theta := 2 * math.Pi * float64(j) / float64(nTheta)
		return geom.V3(
			st.x,
			r.Axis.X+st.r*math.Cos(theta),
			r.Axis.Y+st.r*math.Sin(theta),
		)
	}
	shell := mesh.Shell{Name: name, Body: bodyName, Orient: mesh.Outward}
	for i := 0; i+1 < len(stations); i++ {
		s0, s1 := stations[i], stations[i+1]
		if s0.x == s1.x && s0.r == s1.r {
			continue
		}
		for j := 0; j < nTheta; j++ {
			p00 := ringPoint(s0, j)
			p01 := ringPoint(s0, j+1)
			p10 := ringPoint(s1, j)
			p11 := ringPoint(s1, j+1)
			shell.Tris = append(shell.Tris,
				geom.Triangle{A: p00, B: p01, C: p10},
				geom.Triangle{A: p01, B: p11, C: p10},
			)
		}
	}
	capFan := func(st station, outwardPlus bool) {
		centre := geom.V3(st.x, r.Axis.X, r.Axis.Y)
		for j := 0; j < nTheta; j++ {
			a := ringPoint(st, j)
			b := ringPoint(st, j+1)
			if outwardPlus {
				shell.Tris = append(shell.Tris, geom.Triangle{A: centre, B: a, C: b})
			} else {
				shell.Tris = append(shell.Tris, geom.Triangle{A: centre, B: b, C: a})
			}
		}
	}
	capFan(stations[0], false)
	capFan(stations[len(stations)-1], true)

	if len(shell.Tris) == 0 {
		return mesh.Shell{}, fmt.Errorf("tessellate: empty revolve")
	}
	return shell, nil
}

// tessellateRevolve's ring-trig fast path must be bit-identical to the
// retained per-point reference at every resolution.
func TestRevolveMatchesReference(t *testing.T) {
	rev := testRevolve()
	for _, res := range Presets() {
		got, err := tessellateRevolve(rev, "r", "r", res)
		if err != nil {
			t.Fatalf("%s: %v", res.Name, err)
		}
		want, err := tessellateRevolveReference(rev, "r", "r", res)
		if err != nil {
			t.Fatalf("%s reference: %v", res.Name, err)
		}
		if len(got.Tris) != len(want.Tris) {
			t.Fatalf("%s: %d triangles, reference %d", res.Name, len(got.Tris), len(want.Tris))
		}
		if cap(got.Tris) != len(got.Tris) {
			t.Errorf("%s: cap %d != len %d (inexact prealloc)", res.Name, cap(got.Tris), len(got.Tris))
		}
		for i := range got.Tris {
			if got.Tris[i] != want.Tris[i] {
				t.Fatalf("%s: triangle %d differs:\n got %+v\nwant %+v",
					res.Name, i, got.Tris[i], want.Tris[i])
			}
		}
	}
}

// The pooled ring trig must be safe under concurrent revolve meshing at
// mixed resolutions (run with -race in tier 2).
func TestRevolveConcurrent(t *testing.T) {
	rev := testRevolve()
	presets := Presets()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				res := presets[(w+iter)%len(presets)]
				got, err := tessellateRevolve(rev, "r", "r", res)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want, err := tessellateRevolveReference(rev, "r", "r", res)
				if err != nil {
					t.Errorf("worker %d reference: %v", w, err)
					return
				}
				for i := range got.Tris {
					if got.Tris[i] != want.Tris[i] {
						t.Errorf("worker %d %s: triangle %d differs", w, res.Name, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
