// Package mesh provides triangle-mesh data structures and analyses:
// shells with body provenance, vertex welding, adjacency, manifold and
// orientation checks, Euler characteristic, and mass properties.
//
// A Mesh is the in-memory equivalent of an STL file's content: a flat soup
// of oriented triangles, grouped into shells. Body provenance (which CAD
// body produced each shell) is what lets the slicer and the virtual printer
// reason about the split-feature seams of ObfusCADe §3.1.
package mesh

import (
	"fmt"
	"math"
	"sort"

	"obfuscade/internal/geom"
)

// Orientation describes which way a closed shell's normals point relative
// to the material it bounds.
type Orientation int

const (
	// Outward shells have normals pointing away from enclosed material
	// (a solid body's outer boundary).
	Outward Orientation = iota
	// Inward shells have normals pointing into the enclosed void
	// (a cavity boundary inside a solid).
	Inward
	// OpenSurface shells bound no volume (a surface body exported to
	// STL, §3.2's "surface sphere").
	OpenSurface
)

// String implements fmt.Stringer.
func (o Orientation) String() string {
	switch o {
	case Outward:
		return "outward"
	case Inward:
		return "inward"
	case OpenSurface:
		return "open-surface"
	default:
		return fmt.Sprintf("Orientation(%d)", int(o))
	}
}

// Shell is a group of triangles produced by one CAD body boundary.
type Shell struct {
	// Name identifies the shell (e.g. "body-upper", "sphere-cavity").
	Name string
	// Body names the CAD body that produced the shell; used for seam
	// provenance during slicing and printing.
	Body string
	// Orient records the shell's intended orientation semantics.
	Orient Orientation
	// Tris is the triangle soup. Triangle winding follows the right-hand
	// rule with respect to the face normal.
	Tris []geom.Triangle
}

// Mesh is an ordered collection of shells.
type Mesh struct {
	Shells []Shell
}

// TriangleCount returns the total number of triangles in all shells.
func (m *Mesh) TriangleCount() int {
	n := 0
	for _, s := range m.Shells {
		n += len(s.Tris)
	}
	return n
}

// SizeBytes estimates the mesh's memory residency for cache byte
// budgets: 72 bytes of vertex data per triangle plus a 128-byte header
// per shell.
func (m *Mesh) SizeBytes() int64 {
	return int64(m.TriangleCount())*72 + int64(len(m.Shells))*128
}

// AllTriangles returns a flat copy of every triangle in shell order.
func (m *Mesh) AllTriangles() []geom.Triangle {
	out := make([]geom.Triangle, 0, m.TriangleCount())
	for _, s := range m.Shells {
		out = append(out, s.Tris...)
	}
	return out
}

// Bounds returns the axis-aligned bounding box of the mesh.
func (m *Mesh) Bounds() geom.AABB {
	b := geom.EmptyAABB()
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			b.Extend(t.A)
			b.Extend(t.B)
			b.Extend(t.C)
		}
	}
	return b
}

// SurfaceArea returns the total triangle area of the mesh.
func (m *Mesh) SurfaceArea() float64 {
	var a float64
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			a += t.Area()
		}
	}
	return a
}

// Volume returns the signed volume enclosed by all shells (divergence
// theorem). Outward shells contribute positive volume, inward shells
// negative. Open shells contribute an orientation-dependent residue and
// should not be included in volume queries.
func (m *Mesh) Volume() float64 {
	var v float64
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			v += t.SignedVolume()
		}
	}
	return v
}

// Transform applies m4 to every vertex of the mesh in place.
func (m *Mesh) Transform(m4 geom.Mat4) {
	for si := range m.Shells {
		tris := m.Shells[si].Tris
		for i := range tris {
			tris[i].A = m4.Apply(tris[i].A)
			tris[i].B = m4.Apply(tris[i].B)
			tris[i].C = m4.Apply(tris[i].C)
		}
	}
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	out := &Mesh{Shells: make([]Shell, len(m.Shells))}
	for i, s := range m.Shells {
		ns := s
		ns.Tris = make([]geom.Triangle, len(s.Tris))
		copy(ns.Tris, s.Tris)
		out.Shells[i] = ns
	}
	return out
}

// ShellByName returns the first shell with the given name, or nil.
func (m *Mesh) ShellByName(name string) *Shell {
	for i := range m.Shells {
		if m.Shells[i].Name == name {
			return &m.Shells[i]
		}
	}
	return nil
}

// ZSpan is the z-extent of one triangle: the closed interval [Min, Max]
// its vertices cover along the build direction.
type ZSpan struct {
	Min, Max float64
}

// ZSpans appends the z-extent of every triangle, in triangle order, to buf
// and returns it. The result is the sweep view the slicer's layer index is
// built from: a plane at height z can only intersect triangle i
// transversally when spans[i].Min < z < spans[i].Max. Passing a previous
// result as buf reuses its backing array.
func (s *Shell) ZSpans(buf []ZSpan) []ZSpan {
	buf = buf[:0]
	for _, t := range s.Tris {
		lo, hi := t.A.Z, t.A.Z
		if t.B.Z < lo {
			lo = t.B.Z
		} else if t.B.Z > hi {
			hi = t.B.Z
		}
		if t.C.Z < lo {
			lo = t.C.Z
		} else if t.C.Z > hi {
			hi = t.C.Z
		}
		buf = append(buf, ZSpan{Min: lo, Max: hi})
	}
	return buf
}

// weldKey quantises a vertex to a lattice so numerically-identical
// vertices weld together.
type weldKey struct{ X, Y, Z int64 }

func quantise(v geom.Vec3, tol float64) weldKey {
	return weldKey{
		X: int64(math.Round(v.X / tol)),
		Y: int64(math.Round(v.Y / tol)),
		Z: int64(math.Round(v.Z / tol)),
	}
}

// Indexed is a vertex-welded indexed triangle mesh for one shell.
type Indexed struct {
	Verts []geom.Vec3
	// Faces holds vertex-index triples.
	Faces [][3]int
	// Source maps each face back to its index in the shell's Tris slice
	// (degenerate triangles are dropped during indexing, so the mapping
	// is not the identity).
	Source []int
}

// IndexShell welds shell vertices within tol and returns the indexed mesh.
func IndexShell(s *Shell, tol float64) *Indexed {
	idx := &Indexed{}
	lookup := make(map[weldKey]int)
	add := func(v geom.Vec3) int {
		k := quantise(v, tol)
		if i, ok := lookup[k]; ok {
			return i
		}
		i := len(idx.Verts)
		idx.Verts = append(idx.Verts, v)
		lookup[k] = i
		return i
	}
	for ti, t := range s.Tris {
		a, b, c := add(t.A), add(t.B), add(t.C)
		if a == b || b == c || a == c {
			continue // degenerate after welding
		}
		idx.Faces = append(idx.Faces, [3]int{a, b, c})
		idx.Source = append(idx.Source, ti)
	}
	return idx
}

// edgeKey is an undirected edge between two vertex indices.
type edgeKey struct{ A, B int }

func mkEdge(a, b int) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// TopologyReport summarises the connectivity of an indexed shell.
type TopologyReport struct {
	Verts, Edges, Faces int
	// BoundaryEdges counts edges used by exactly one face (holes in the
	// shell). Zero for watertight shells.
	BoundaryEdges int
	// NonManifoldEdges counts edges used by three or more faces.
	NonManifoldEdges int
	// OrientationConflicts counts manifold edges whose two adjacent faces
	// traverse the edge in the same direction (inconsistent winding).
	OrientationConflicts int
	// EulerCharacteristic is V - E + F.
	EulerCharacteristic int
}

// Watertight reports whether the shell is a closed, consistently-oriented
// 2-manifold.
func (r TopologyReport) Watertight() bool {
	return r.BoundaryEdges == 0 && r.NonManifoldEdges == 0 && r.OrientationConflicts == 0
}

// Analyze computes the topology report of an indexed shell.
func (x *Indexed) Analyze() TopologyReport {
	type edgeUse struct {
		count   int
		forward int // uses traversing the edge from lower to higher index
	}
	edges := make(map[edgeKey]*edgeUse)
	use := func(a, b int) {
		k := mkEdge(a, b)
		u := edges[k]
		if u == nil {
			u = &edgeUse{}
			edges[k] = u
		}
		u.count++
		if a < b {
			u.forward++
		}
	}
	for _, f := range x.Faces {
		use(f[0], f[1])
		use(f[1], f[2])
		use(f[2], f[0])
	}
	r := TopologyReport{
		Verts: len(x.Verts),
		Edges: len(edges),
		Faces: len(x.Faces),
	}
	for _, u := range edges {
		switch {
		case u.count == 1:
			r.BoundaryEdges++
		case u.count > 2:
			r.NonManifoldEdges++
		case u.count == 2 && u.forward != 1:
			// A consistently-oriented manifold edge is traversed once in
			// each direction.
			r.OrientationConflicts++
		}
	}
	r.EulerCharacteristic = r.Verts - r.Edges + r.Faces
	return r
}

// BoundaryLoops extracts the boundary polylines (sequences of vertex
// positions) of an open shell. Watertight shells return nil.
func (x *Indexed) BoundaryLoops() [][]geom.Vec3 {
	counts := make(map[edgeKey]int)
	dir := make(map[edgeKey][2]int)
	for _, f := range x.Faces {
		for e := 0; e < 3; e++ {
			a, b := f[e], f[(e+1)%3]
			k := mkEdge(a, b)
			counts[k]++
			dir[k] = [2]int{a, b}
		}
	}
	next := make(map[int][]int)
	for k, c := range counts {
		if c == 1 {
			d := dir[k]
			next[d[0]] = append(next[d[0]], d[1])
		}
	}
	// Deterministic traversal order.
	starts := make([]int, 0, len(next))
	for v := range next {
		starts = append(starts, v)
	}
	sort.Ints(starts)
	visited := make(map[int]bool)
	var loops [][]geom.Vec3
	for _, s := range starts {
		if visited[s] {
			continue
		}
		var loop []geom.Vec3
		cur := s
		for !visited[cur] {
			visited[cur] = true
			loop = append(loop, x.Verts[cur])
			nexts := next[cur]
			if len(nexts) == 0 {
				break
			}
			cur = nexts[0]
		}
		if len(loop) >= 2 {
			loops = append(loops, loop)
		}
	}
	return loops
}

// ValidationIssue describes one problem found by Validate.
type ValidationIssue struct {
	Shell   string
	Kind    string
	Message string
}

// Validate runs the geometry-error checks a defender applies to an STL
// file before printing (Table 1, "STL file" row mitigations): degenerate
// triangles, open boundaries on shells marked closed, non-manifold edges,
// inconsistent winding, and normal/vertex-order disagreement.
func (m *Mesh) Validate(tol float64) []ValidationIssue {
	var issues []ValidationIssue
	for i := range m.Shells {
		s := &m.Shells[i]
		degen := 0
		for _, t := range s.Tris {
			if t.IsDegenerate(tol) {
				degen++
			}
		}
		if degen > 0 {
			issues = append(issues, ValidationIssue{
				Shell: s.Name, Kind: "degenerate",
				Message: fmt.Sprintf("%d degenerate triangles", degen),
			})
		}
		rep := IndexShell(s, tol).Analyze()
		if s.Orient != OpenSurface && rep.BoundaryEdges > 0 {
			issues = append(issues, ValidationIssue{
				Shell: s.Name, Kind: "open-boundary",
				Message: fmt.Sprintf("%d boundary edges on closed shell", rep.BoundaryEdges),
			})
		}
		if rep.NonManifoldEdges > 0 {
			issues = append(issues, ValidationIssue{
				Shell: s.Name, Kind: "non-manifold",
				Message: fmt.Sprintf("%d non-manifold edges", rep.NonManifoldEdges),
			})
		}
		if rep.OrientationConflicts > 0 {
			issues = append(issues, ValidationIssue{
				Shell: s.Name, Kind: "winding",
				Message: fmt.Sprintf("%d orientation conflicts", rep.OrientationConflicts),
			})
		}
	}
	return issues
}

// FlipOrientation reverses the winding of every triangle in the shell.
func (s *Shell) FlipOrientation() {
	for i := range s.Tris {
		s.Tris[i].B, s.Tris[i].C = s.Tris[i].C, s.Tris[i].B
	}
}

// ShellVolume returns the signed volume enclosed by a single shell.
func (s *Shell) ShellVolume() float64 {
	var v float64
	for _, t := range s.Tris {
		v += t.SignedVolume()
	}
	return v
}
