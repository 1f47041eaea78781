package mesh

import (
	"math"
	"sync"
	"testing"

	"obfuscade/internal/geom"
)

// sphereShellReference is the straightforward per-point implementation,
// retained as the oracle for SphereShell's bit-identity property test.
func sphereShellReference(name, body string, center geom.Vec3, radius float64, latSeg, lonSeg int) Shell {
	if latSeg < 2 {
		latSeg = 2
	}
	if lonSeg < 3 {
		lonSeg = 3
	}
	point := func(i, j int) geom.Vec3 {
		theta := math.Pi * float64(i) / float64(latSeg) // 0..pi from +Z
		phi := 2 * math.Pi * float64(j) / float64(lonSeg)
		return geom.Vec3{
			X: center.X + radius*math.Sin(theta)*math.Cos(phi),
			Y: center.Y + radius*math.Sin(theta)*math.Sin(phi),
			Z: center.Z + radius*math.Cos(theta),
		}
	}
	s := Shell{Name: name, Body: body, Orient: Outward}
	for i := 0; i < latSeg; i++ {
		for j := 0; j < lonSeg; j++ {
			p00 := point(i, j)
			p01 := point(i, j+1)
			p10 := point(i+1, j)
			p11 := point(i+1, j+1)
			if i > 0 {
				s.Tris = append(s.Tris, geom.Triangle{A: p00, B: p10, C: p01})
			}
			if i < latSeg-1 {
				s.Tris = append(s.Tris, geom.Triangle{A: p01, B: p10, C: p11})
			}
		}
	}
	return s
}

// SphereShell's trig-table fast path must be bit-identical to the
// retained per-point reference — the correctness contract of the
// zero-alloc tessellation work.
func TestSphereShellMatchesReference(t *testing.T) {
	cases := []struct {
		center   geom.Vec3
		radius   float64
		lat, lon int
	}{
		{geom.V3(0, 0, 0), 1, 3, 6},
		{geom.V3(1.5, -2.25, 33), 2.1, 7, 13},
		{geom.V3(-8, 0.125, 4), 0.3, 24, 48},
		{geom.V3(0, 0, 0), 5, 1, 2}, // clamped to the minimums
	}
	for _, c := range cases {
		got := SphereShell("s", "b", c.center, c.radius, c.lat, c.lon)
		want := sphereShellReference("s", "b", c.center, c.radius, c.lat, c.lon)
		if len(got.Tris) != len(want.Tris) {
			t.Fatalf("lat=%d lon=%d: %d triangles, reference %d",
				c.lat, c.lon, len(got.Tris), len(want.Tris))
		}
		// The prealloc must be exact, not just sufficient.
		if cap(got.Tris) != len(got.Tris) {
			t.Errorf("lat=%d lon=%d: cap %d != len %d (inexact prealloc)",
				c.lat, c.lon, cap(got.Tris), len(got.Tris))
		}
		for i := range got.Tris {
			if got.Tris[i] != want.Tris[i] {
				t.Fatalf("lat=%d lon=%d: triangle %d differs:\n got %+v\nwant %+v",
					c.lat, c.lon, i, got.Tris[i], want.Tris[i])
			}
		}
	}
}

// The pooled trig scratch must be safe and leak-free under concurrent
// builders of different sizes (run with -race in tier 2).
func TestSphereShellConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				lat := 3 + (w+iter)%9
				lon := 6 + (w*iter)%17
				got := SphereShell("s", "b", geom.V3(0, 0, 0), 2, lat, lon)
				want := sphereShellReference("s", "b", geom.V3(0, 0, 0), 2, lat, lon)
				for i := range got.Tris {
					if got.Tris[i] != want.Tris[i] {
						t.Errorf("worker %d lat=%d lon=%d: triangle %d differs", w, lat, lon, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// The pooled face scratch of RepairWinding and SplitEdgeComponents must
// not leak state between calls: repeated runs on fresh copies of the same
// damaged shell behave identically.
func TestFaceScratchReuse(t *testing.T) {
	damaged := func() Shell {
		s := BoxShell("box", "box", geom.V3(0, 0, 0), geom.V3(2, 3, 4))
		// Flip a few triangles out of orientation.
		for _, i := range []int{1, 4, 7} {
			s.Tris[i].B, s.Tris[i].C = s.Tris[i].C, s.Tris[i].B
		}
		return s
	}
	first := damaged()
	firstFlips := first.RepairWinding(1e-9)
	firstComps := first.SplitEdgeComponents(1e-9)
	for i := 0; i < 5; i++ {
		s := damaged()
		if flips := s.RepairWinding(1e-9); flips != firstFlips {
			t.Fatalf("run %d: flips = %d, want %d (scratch leak?)", i, flips, firstFlips)
		}
		comps := s.SplitEdgeComponents(1e-9)
		if len(comps) != len(firstComps) {
			t.Fatalf("run %d: components = %d, want %d", i, len(comps), len(firstComps))
		}
		for ci := range comps {
			if len(comps[ci].Tris) != len(firstComps[ci].Tris) {
				t.Fatalf("run %d: component %d size changed", i, ci)
			}
		}
	}
}
