package stego

import (
	"math"
	"sort"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

// quantize snaps a coordinate to the grid at float32 precision. With a
// power-of-two quantum both the scale and the product are exact in
// float64, and any grid value a sane part can reach (|c| < 2^13 with the
// default quantum) is also exact in float32. Beyond that float32's
// spacing exceeds the quantum, so the snapped value is rounded to
// float32 as well: the canonical keys, and the normals the encoder
// derives from them, are then those of the bytes on the wire, and
// quantized meshes survive the STL wire format bit-for-bit.
func quantize(c, q float64) float64 {
	return float64(float32(math.Round(c/q) * q))
}

// residue is the sub-quantum remainder of a coordinate in units of the
// quantum, in [-0.5, 0.5). Zero for on-grid coordinates; ±0.25 for the
// LSB channel's bit-1 offsets.
func residue(c, q float64) float64 {
	r := c / q
	return r - math.Round(r)
}

// flat9 is a triangle flattened to its nine coordinates in vertex-major
// order — the canonical sort key and the coordinate enumeration order
// of the LSB channel.
type flat9 [9]float64

func flatten(t geom.Triangle) flat9 {
	return flat9{t.A.X, t.A.Y, t.A.Z, t.B.X, t.B.Y, t.B.Z, t.C.X, t.C.Y, t.C.Z}
}

func unflatten(f flat9) geom.Triangle {
	return geom.Triangle{
		A: geom.V3(f[0], f[1], f[2]),
		B: geom.V3(f[3], f[4], f[5]),
		C: geom.V3(f[6], f[7], f[8]),
	}
}

func less9(a, b flat9) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// canonTriangle quantizes a triangle and rotates its vertex cycle to
// the lexicographically smallest of the three rotations. The rotation
// preserves winding (and therefore the facet normal) but removes the
// "which vertex comes first" freedom — a third covert channel the
// sanitizer destroys for free.
func canonTriangle(t geom.Triangle, q float64) flat9 {
	f := flatten(t)
	for j := range f {
		f[j] = quantize(f[j], q)
	}
	best := f
	for _, r := range [2]flat9{
		{f[3], f[4], f[5], f[6], f[7], f[8], f[0], f[1], f[2]},
		{f[6], f[7], f[8], f[0], f[1], f[2], f[3], f[4], f[5]},
	} {
		if less9(r, best) {
			best = r
		}
	}
	return best
}

// canonKeys computes the canonical (quantized, rotation-normalized)
// key of every triangle. Keys are invariant under both channels:
// facet-order embedding only moves whole triangles, and LSB embedding
// perturbs coordinates by strictly less than half a quantum.
func canonKeys(tris []geom.Triangle, q float64) []flat9 {
	keys := make([]flat9, len(tris))
	for i, t := range tris {
		keys[i] = canonTriangle(t, q)
	}
	return keys
}

// canonRanks returns, for each triangle, its rank in the canonical
// spatial sort. Ties (geometrically identical facets) are broken by
// input position, which is the conservative choice for the detector's
// inversion count. dup reports whether any two keys collided.
func canonRanks(keys []flat9) (ranks []int, dup bool) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return less9(keys[idx[a]], keys[idx[b]])
	})
	ranks = make([]int, len(keys))
	for r, i := range idx {
		ranks[i] = r
		if r > 0 && keys[idx[r-1]] == keys[i] {
			dup = true
		}
	}
	return ranks, dup
}

// Sanitize destroys every stego channel this package models: all
// coordinates are re-quantized to the grid (killing sub-quantum LSB
// freedom), each facet's vertex cycle is rotated to its canonical
// start (killing the vertex-order channel), and the facet list is
// re-ordered by a deterministic spatial sort (killing the permutation
// channel). The result is a pure function of the geometry: any two
// inputs describing the same quantized part sanitize to identical
// meshes, so Sanitize∘Embed∘Sanitize = Sanitize for every payload. The
// output is a single shell — the STL wire format, where these channels
// live, has no shell structure to preserve.
func Sanitize(m *mesh.Mesh, opts Options) *mesh.Mesh {
	opts = opts.withDefaults()
	tris := m.AllTriangles()
	flats := canonKeys(tris, opts.Quantum)
	sort.Slice(flats, func(a, b int) bool { return less9(flats[a], flats[b]) })
	out := make([]geom.Triangle, len(flats))
	for i, f := range flats {
		out[i] = unflatten(f)
	}
	shell := mesh.Shell{Orient: mesh.Outward, Tris: out}
	if len(m.Shells) > 0 {
		shell.Name = m.Shells[0].Name
		shell.Body = m.Shells[0].Body
		shell.Orient = m.Shells[0].Orient
	}
	return &mesh.Mesh{Shells: []mesh.Shell{shell}}
}

// coordAt / setCoordAt address coordinate j (0..8, vertex-major) of a
// triangle — the LSB channel's enumeration.
func coordAt(t *geom.Triangle, j int) float64 {
	v := [3]*geom.Vec3{&t.A, &t.B, &t.C}[j/3]
	switch j % 3 {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

func setCoordAt(t *geom.Triangle, j int, c float64) {
	v := [3]*geom.Vec3{&t.A, &t.B, &t.C}[j/3]
	switch j % 3 {
	case 0:
		v.X = c
	case 1:
		v.Y = c
	default:
		v.Z = c
	}
}
