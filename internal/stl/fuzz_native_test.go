package stl

import (
	"bytes"
	"math"
	"testing"
)

// Native fuzz target: the decoder must never panic on arbitrary bytes.
// Run with `go test -fuzz=FuzzUnmarshal ./internal/stl` for deep fuzzing;
// the seed corpus runs as a regular test.
func FuzzUnmarshal(f *testing.F) {
	m := boxMesh()
	bin, err := Marshal(m, Binary, "seed")
	if err != nil {
		f.Fatal(err)
	}
	asc, err := Marshal(m, ASCII, "seed")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)
	f.Add(asc)
	f.Add([]byte("solid x\nendsolid x\n"))
	f.Add([]byte{})
	// Non-finite coordinates must be rejected, never decoded.
	f.Add([]byte("solid p\nfacet normal 0 0 1\nouter loop\nvertex NaN 0 0\nvertex 1 0 0\nvertex 0 +Inf 0\nendloop\nendfacet\nendsolid p\n"))
	// Classic-Mac lone-\r terminators: must decode all facets, not zero.
	f.Add(bytes.ReplaceAll(asc, []byte("\n"), []byte("\r")))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		if got.TriangleCount() < 0 {
			t.Fatal("negative triangle count")
		}
		// No decode may yield geometry that is not finite as float32.
		for _, tri := range got.AllTriangles() {
			for _, v := range [...][3]float64{{tri.A.X, tri.A.Y, tri.A.Z}, {tri.B.X, tri.B.Y, tri.B.Z}, {tri.C.X, tri.C.Y, tri.C.Z}} {
				for _, c := range v {
					if f := float64(float32(c)); math.IsNaN(f) || math.IsInf(f, 0) {
						t.Fatal("decoded a coordinate that is not finite as float32")
					}
				}
			}
		}
	})
}
