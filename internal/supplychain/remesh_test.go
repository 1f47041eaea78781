package supplychain

import (
	"context"
	"testing"

	"obfuscade/internal/brep"
	"obfuscade/internal/mesh"
	"obfuscade/internal/slicer"
	"obfuscade/internal/tessellate"
)

func splitBarSoup(t *testing.T) *mesh.Mesh {
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
	m, err := tessellate.Tessellate(p, tessellate.Coarse)
	if err != nil {
		t.Fatal(err)
	}
	soup := mesh.Shell{Name: "import"}
	for _, sh := range m.Shells {
		soup.Tris = append(soup.Tris, sh.Tris...)
	}
	return &mesh.Mesh{Shells: []mesh.Shell{soup}}
}

// The counterfeiter's "clean the stolen STL by remeshing" countermeasure
// fails: the two split bodies sample the shared spline at staggered
// parameters, so no clustering size merges their boundaries — the split
// survives — while the clustering deforms the whole surface by up to half
// the cluster size and leaves geometry-review artifacts. The defense is
// robust against this attack class (documented in EXPERIMENTS.md).
func TestRemeshAttackAnalysis(t *testing.T) {
	prevDev := 0.0
	for _, cluster := range []float64{0.02, 0.08, 0.2} {
		m := splitBarSoup(t)
		orig := m.Clone()
		if err := RemeshAttack(m, cluster); err != nil {
			t.Fatal(err)
		}
		// 1. The split survives: still two edge-connected bodies.
		comps := m.Shells[0].SplitEdgeComponents(1e-7)
		if len(comps) != 2 {
			t.Errorf("cluster %g: components = %d, want 2 (split should survive)",
				cluster, len(comps))
		}
		// 2. Dimensional damage grows with the cluster size.
		dev := MaxSurfaceDeviation(orig, m)
		if dev < prevDev {
			t.Errorf("cluster %g: deviation %g should grow (prev %g)", cluster, dev, prevDev)
		}
		if cluster >= 0.2 && dev < 0.1 {
			t.Errorf("cluster %g: deviation %g implausibly small", cluster, dev)
		}
		prevDev = dev
		// 3. Geometry review flags the tampering.
		if issues := m.Validate(1e-9); len(issues) == 0 {
			t.Errorf("cluster %g: remeshed file passed geometry review", cluster)
		}
		// 4. The seam still slices as two separate bodies.
		sliced, err := slicer.SliceIndexedCtx(context.Background(), &mesh.Mesh{Shells: comps}, slicer.DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("cluster %g: %v", cluster, err)
		}
		if len(sliced.BodyNames) != 2 {
			t.Errorf("cluster %g: sliced bodies = %d", cluster, len(sliced.BodyNames))
		}
		st := sliced.InterfaceStatsBetween(sliced.BodyNames[0], sliced.BodyNames[1])
		if st.Layers == 0 {
			t.Errorf("cluster %g: seam interface disappeared", cluster)
		}
	}
}

func TestRemeshAttackErrors(t *testing.T) {
	m := splitBarSoup(t)
	if err := RemeshAttack(m, 0); err == nil {
		t.Error("expected error for zero cluster")
	}
}
