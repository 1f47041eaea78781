// Package stl reads and writes stereolithography (STL) files, the
// printer-independent exchange format at the centre of the AM process
// chain (paper Fig. 1). Both the binary and ASCII dialects are supported.
//
// STL is a flat soup of oriented triangles; shell structure is not part of
// the format. Encode therefore flattens a mesh.Mesh, while Decode returns a
// single anonymous shell. This information loss is one of the properties
// ObfusCADe exploits: two CAD models with different body semantics (solid
// vs. surface sphere, §3.2) can export to byte-identical STL sizes.
package stl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

// Format selects the STL dialect.
type Format int

const (
	// Binary is the compact little-endian dialect (80-byte header,
	// 50 bytes per facet).
	Binary Format = iota
	// ASCII is the human-readable "solid ... endsolid" dialect.
	ASCII
)

const (
	binaryHeaderSize = 80
	binaryFacetSize  = 50
)

// maxBinaryTriangles is the largest facet count the binary dialect can
// represent: the on-disk count field is a uint32.
const maxBinaryTriangles = math.MaxUint32

// BinarySize returns the exact byte size of a binary STL file holding n
// triangles. The result is int64 so a facet count near the uint32 limit
// (a ~200 GB file) sizes correctly even on 32-bit platforms, where the
// multiplication would overflow int.
func BinarySize(n int) int64 { return binaryHeaderSize + 4 + binaryFacetSize*int64(n) }

// Encode writes the mesh to w in the given format. The header/solid name
// is taken from name (truncated to fit binary headers).
func Encode(w io.Writer, m *mesh.Mesh, format Format, name string) error {
	switch format {
	case Binary:
		return encodeBinary(w, m, name)
	case ASCII:
		return encodeASCII(w, m, name)
	default:
		return fmt.Errorf("stl: unknown format %d", int(format))
	}
}

// Marshal encodes the mesh to a byte slice.
func Marshal(m *mesh.Mesh, format Format, name string) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, m, format, name); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sanitizeBinaryHeader returns the header text for a binary STL file. A
// header beginning with "solid" is the ASCII dialect's magic word: format
// sniffers (including looksASCII on length-damaged files) would misread
// the binary file as ASCII, so such names are prefixed out of the
// ambiguous form.
func sanitizeBinaryHeader(name string) string {
	if strings.HasPrefix(strings.TrimLeft(name, " \t\r\n"), "solid") {
		return "bin: " + strings.TrimLeft(name, " \t\r\n")
	}
	return name
}

// checkBinaryTriangleCount rejects facet counts the binary dialect cannot
// represent; uint32 truncation would silently emit a corrupt file.
func checkBinaryTriangleCount(n int) error {
	if n < 0 || int64(n) > maxBinaryTriangles {
		return fmt.Errorf("stl: %d triangles exceed the binary format's uint32 facet count", n)
	}
	return nil
}

func encodeBinary(w io.Writer, m *mesh.Mesh, name string) error {
	n := m.TriangleCount()
	if err := checkBinaryTriangleCount(n); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var header [binaryHeaderSize]byte
	copy(header[:], sanitizeBinaryHeader(name))
	if _, err := bw.Write(header[:]); err != nil {
		return fmt.Errorf("stl: write header: %w", err)
	}
	count := uint32(n)
	if err := binary.Write(bw, binary.LittleEndian, count); err != nil {
		return fmt.Errorf("stl: write count: %w", err)
	}
	var facet [binaryFacetSize]byte
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			n := t.Normal()
			putVec := func(off int, v geom.Vec3) {
				binary.LittleEndian.PutUint32(facet[off:], math.Float32bits(float32(v.X)))
				binary.LittleEndian.PutUint32(facet[off+4:], math.Float32bits(float32(v.Y)))
				binary.LittleEndian.PutUint32(facet[off+8:], math.Float32bits(float32(v.Z)))
			}
			putVec(0, n)
			putVec(12, t.A)
			putVec(24, t.B)
			putVec(36, t.C)
			facet[48], facet[49] = 0, 0
			if _, err := bw.Write(facet[:]); err != nil {
				return fmt.Errorf("stl: write facet: %w", err)
			}
		}
	}
	return bw.Flush()
}

func encodeASCII(w io.Writer, m *mesh.Mesh, name string) error {
	bw := bufio.NewWriter(w)
	clean := strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, name)
	if _, err := fmt.Fprintf(bw, "solid %s\n", clean); err != nil {
		return err
	}
	for _, s := range m.Shells {
		for _, t := range s.Tris {
			n := t.Normal()
			fmt.Fprintf(bw, "  facet normal %e %e %e\n", n.X, n.Y, n.Z)
			fmt.Fprintf(bw, "    outer loop\n")
			for _, v := range [3]geom.Vec3{t.A, t.B, t.C} {
				fmt.Fprintf(bw, "      vertex %e %e %e\n", v.X, v.Y, v.Z)
			}
			fmt.Fprintf(bw, "    endloop\n")
			fmt.Fprintf(bw, "  endfacet\n")
		}
	}
	if _, err := fmt.Fprintf(bw, "endsolid %s\n", clean); err != nil {
		return err
	}
	return bw.Flush()
}

// Unmarshal parses STL bytes in either dialect.
func Unmarshal(data []byte) (*mesh.Mesh, error) {
	if looksASCII(data) {
		return decodeASCII(data)
	}
	return decodeBinary(data)
}

// looksASCII applies the usual heuristic: starts with "solid" and the
// implied binary triangle count does not match the file length.
func looksASCII(data []byte) bool {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if !bytes.HasPrefix(trimmed, []byte("solid")) {
		return false
	}
	if len(data) >= binaryHeaderSize+4 {
		count := binary.LittleEndian.Uint32(data[binaryHeaderSize:])
		if BinarySize(int(count)) == int64(len(data)) {
			return false // consistent binary file that happens to say "solid"
		}
	}
	return true
}

func decodeBinary(data []byte) (*mesh.Mesh, error) {
	if len(data) < binaryHeaderSize+4 {
		return nil, fmt.Errorf("stl: binary file too short (%d bytes)", len(data))
	}
	name := string(bytes.SplitN(data[:binaryHeaderSize], []byte{0}, 2)[0])
	count := binary.LittleEndian.Uint32(data[binaryHeaderSize:])
	want := BinarySize(int(count))
	if int64(len(data)) < want {
		return nil, fmt.Errorf("stl: truncated binary file: have %d bytes, want %d for %d facets",
			len(data), want, count)
	}
	s := mesh.Shell{Name: strings.TrimSpace(name), Orient: mesh.Outward}
	off := binaryHeaderSize + 4
	getVec := func(o int) geom.Vec3 {
		return geom.V3(
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[o:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[o+4:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(data[o+8:]))),
		)
	}
	for i := uint32(0); i < count; i++ {
		base := off + int(i)*binaryFacetSize
		t := geom.Triangle{A: getVec(base + 12), B: getVec(base + 24), C: getVec(base + 36)}
		if !finite32(t.A) || !finite32(t.B) || !finite32(t.C) {
			return nil, fmt.Errorf("stl: facet %d: non-finite vertex coordinate", i)
		}
		s.Tris = append(s.Tris, t)
	}
	return &mesh.Mesh{Shells: []mesh.Shell{s}}, nil
}

// finite32 reports whether every coordinate of v is finite as the binary
// dialect's float32. NaN and ±Inf poison every downstream geometric
// predicate without ever failing loudly.
func finite32(v geom.Vec3) bool {
	for _, c := range [...]float64{v.X, v.Y, v.Z} {
		if f := float64(float32(c)); math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// scanASCIILines is a bufio.SplitFunc that terminates lines on "\n",
// "\r\n", or a lone "\r". bufio.ScanLines only handles the first two;
// classic-Mac exports that end every line with a bare "\r" used to scan
// as one giant token whose first field is "solid", silently swallowing
// every facet into the solid name and decoding to an empty mesh.
func scanASCIILines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		if data[i] == '\r' {
			if i+1 < len(data) && data[i+1] == '\n' {
				return i + 2, data[:i], nil
			}
			if i+1 == len(data) && !atEOF {
				// The "\r" might be half of a "\r\n" split across
				// reads; ask for more data before deciding.
				return 0, nil, nil
			}
		}
		return i + 1, data[:i], nil
	}
	if atEOF {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func decodeASCII(data []byte) (*mesh.Mesh, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	sc.Split(scanASCIILines)
	s := mesh.Shell{Orient: mesh.Outward}
	var verts []geom.Vec3
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "solid":
			if len(fields) > 1 {
				s.Name = strings.Join(fields[1:], " ")
			}
		case "vertex":
			if len(fields) != 4 {
				return nil, fmt.Errorf("stl: line %d: malformed vertex", line)
			}
			var v geom.Vec3
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%g %g %g",
				&v.X, &v.Y, &v.Z); err != nil {
				return nil, fmt.Errorf("stl: line %d: %w", line, err)
			}
			// %g happily parses NaN, ±Inf and 1e100. Reject here.
			if !finite32(v) {
				return nil, fmt.Errorf("stl: line %d: non-finite vertex coordinate %q", line, strings.Join(fields[1:], " "))
			}
			verts = append(verts, v)
		case "endfacet":
			if len(verts) != 3 {
				return nil, fmt.Errorf("stl: line %d: facet with %d vertices", line, len(verts))
			}
			s.Tris = append(s.Tris, geom.Triangle{A: verts[0], B: verts[1], C: verts[2]})
			verts = verts[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stl: scan: %w", err)
	}
	if len(verts) != 0 {
		return nil, fmt.Errorf("stl: dangling vertices at EOF")
	}
	return &mesh.Mesh{Shells: []mesh.Shell{s}}, nil
}

// Stats summarises an STL file for review and integrity checking
// (Table 1 mitigations: "Veri­fication of ... file sizes/hashes",
// "Review 3D rendering/file contents").
type Stats struct {
	Triangles   int
	BinaryBytes int64
	SurfaceArea float64
	Volume      float64
	Bounds      geom.AABB
}

// StatsOf computes summary statistics for a mesh as it would appear in a
// binary STL file.
func StatsOf(m *mesh.Mesh) Stats {
	return Stats{
		Triangles:   m.TriangleCount(),
		BinaryBytes: BinarySize(m.TriangleCount()),
		SurfaceArea: m.SurfaceArea(),
		Volume:      m.Volume(),
		Bounds:      m.Bounds(),
	}
}

// Diff describes the difference between two STL-level meshes.
type Diff struct {
	TriangleDelta int
	VolumeDelta   float64
	AreaDelta     float64
	BoundsDelta   geom.Vec3
}

// Compare returns the structural difference between two meshes — the check
// a defender performs against a known-good reference before printing.
func Compare(a, b *mesh.Mesh) Diff {
	sa, sb := StatsOf(a), StatsOf(b)
	return Diff{
		TriangleDelta: sb.Triangles - sa.Triangles,
		VolumeDelta:   sb.Volume - sa.Volume,
		AreaDelta:     sb.SurfaceArea - sa.SurfaceArea,
		BoundsDelta:   sb.Bounds.Size().Sub(sa.Bounds.Size()),
	}
}

// Identical reports whether the diff is empty within tolerance tol.
func (d Diff) Identical(tol float64) bool {
	return d.TriangleDelta == 0 &&
		math.Abs(d.VolumeDelta) <= tol &&
		math.Abs(d.AreaDelta) <= tol &&
		d.BoundsDelta.Abs().Len() <= tol
}
