package stl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
)

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == ASCII {
		return "ascii"
	}
	return "binary"
}

// Decode reads an STL file in either dialect, auto-detecting the format.
// The result is a mesh with a single shell named after the solid (binary
// files use the header text up to the first NUL).
func Decode(r io.Reader) (*mesh.Mesh, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stl: read: %w", err)
	}
	return Unmarshal(data)
}

func boxMesh() *mesh.Mesh {
	return &mesh.Mesh{Shells: []mesh.Shell{
		mesh.BoxShell("box", "b", geom.V3(0, 0, 0), geom.V3(2, 3, 4)),
	}}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := boxMesh()
	data, err := Marshal(m, Binary, "test-box")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != BinarySize(12) {
		t.Errorf("binary size = %d, want %d", len(data), BinarySize(12))
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TriangleCount() != 12 {
		t.Errorf("round-trip triangles = %d, want 12", got.TriangleCount())
	}
	if name := got.Shells[0].Name; name != "test-box" {
		t.Errorf("round-trip name = %q", name)
	}
	if v := got.Volume(); !geom.ApproxEq(v, 24, 1e-3) {
		t.Errorf("round-trip volume = %v, want 24", v)
	}
}

func TestASCIIRoundTrip(t *testing.T) {
	m := boxMesh()
	data, err := Marshal(m, ASCII, "ascii box")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("solid ascii box")) {
		t.Errorf("ASCII output missing solid header: %.40s", data)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TriangleCount() != 12 {
		t.Errorf("round-trip triangles = %d", got.TriangleCount())
	}
	if v := got.Volume(); !geom.ApproxEq(v, 24, 1e-6) {
		t.Errorf("ASCII round-trip volume = %v, want 24", v)
	}
	if got.Shells[0].Name != "ascii box" {
		t.Errorf("name = %q", got.Shells[0].Name)
	}
}

func TestFormatString(t *testing.T) {
	if Binary.String() != "binary" || ASCII.String() != "ascii" {
		t.Error("Format.String misbehaves")
	}
}

func TestBinaryHeaderStartingWithSolid(t *testing.T) {
	// A binary file whose header begins with "solid" must still decode as
	// binary when the length checks out.
	m := boxMesh()
	data, err := Marshal(m, Binary, "solid but binary")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TriangleCount() != 12 {
		t.Errorf("tricky header triangles = %d, want 12", got.TriangleCount())
	}
}

func TestDecodeTruncatedBinary(t *testing.T) {
	m := boxMesh()
	data, _ := Marshal(m, Binary, "x")
	if _, err := Unmarshal(data[:len(data)-7]); err == nil {
		t.Error("expected error for truncated binary file")
	}
	if _, err := Unmarshal(data[:10]); err == nil {
		t.Error("expected error for far-too-short file")
	}
}

func TestDecodeMalformedASCII(t *testing.T) {
	bad := "solid x\nfacet normal 0 0 1\nouter loop\nvertex 0 0\nendloop\nendfacet\nendsolid x\n"
	if _, err := Unmarshal([]byte(bad)); err == nil {
		t.Error("expected error for malformed vertex")
	}
	bad2 := "solid x\nvertex 1 2 3\n" // dangling vertex, no endfacet
	if _, err := Unmarshal([]byte(bad2)); err == nil {
		t.Error("expected error for dangling vertices")
	}
}

func TestDecodeASCIIRejectsNonFinite(t *testing.T) {
	cases := map[string]string{
		"nan":  "vertex NaN 0 0",
		"inf":  "vertex 0 +Inf 0",
		"ninf": "vertex 0 0 -inf",
		// Finite in float64, +Inf once written as binary float32.
		"big": "vertex 1e100 0 0",
	}
	for name, vtx := range cases {
		bad := "solid x\nfacet normal 0 0 1\nouter loop\n" + vtx +
			"\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"
		if _, err := Unmarshal([]byte(bad)); err == nil {
			t.Errorf("%s: expected error for non-finite coordinate", name)
		} else if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: error %q does not mention non-finite", name, err)
		}
	}
}

func TestDecodeBinaryRejectsNonFinite(t *testing.T) {
	good, err := Marshal(boxMesh(), Binary, "box")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]float32{
		"nan": float32(math.NaN()), "inf": float32(math.Inf(1)), "ninf": float32(math.Inf(-1)),
	} {
		bad := bytes.Clone(good)
		// The second vertex's y coordinate of the first facet.
		binary.LittleEndian.PutUint32(bad[binaryHeaderSize+4+28:], math.Float32bits(c))
		if _, err := Unmarshal(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%s: got error %v, want a non-finite coordinate error", name, err)
		}
	}
}

func TestDecodeASCIILineEndings(t *testing.T) {
	m := boxMesh()
	data, err := Marshal(m, ASCII, "endings")
	if err != nil {
		t.Fatal(err)
	}
	lf := string(data)
	cases := map[string]string{
		"lf":         lf,
		"crlf":       strings.ReplaceAll(lf, "\n", "\r\n"),
		"cr":         strings.ReplaceAll(lf, "\n", "\r"),
		"no-newline": strings.TrimSuffix(lf, "\n"),
		// A lone-\r file whose final facet abuts endsolid with no
		// trailing terminator at all: every facet must still decode.
		"cr-no-trailing": strings.TrimSuffix(strings.ReplaceAll(lf, "\n", "\r"), "\r"),
	}
	for name, in := range cases {
		got, err := Unmarshal([]byte(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got.TriangleCount() != 12 {
			t.Errorf("%s: triangles = %d, want 12", name, got.TriangleCount())
		}
	}
}

func TestDecodeReader(t *testing.T) {
	m := boxMesh()
	data, _ := Marshal(m, ASCII, "via reader")
	got, err := Decode(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got.TriangleCount() != 12 {
		t.Errorf("triangles = %d", got.TriangleCount())
	}
}

func TestStatsOf(t *testing.T) {
	st := StatsOf(boxMesh())
	if st.Triangles != 12 || st.BinaryBytes != BinarySize(12) {
		t.Errorf("stats = %+v", st)
	}
	if !geom.ApproxEq(st.Volume, 24, 1e-9) {
		t.Errorf("stats volume = %v", st.Volume)
	}
	if !geom.ApproxEq(st.SurfaceArea, 52, 1e-9) {
		t.Errorf("stats area = %v", st.SurfaceArea)
	}
}

func TestCompareDetectsTamper(t *testing.T) {
	a := boxMesh()
	b := boxMesh()
	if d := Compare(a, b); !d.Identical(1e-9) {
		t.Errorf("identical meshes differ: %+v", d)
	}
	// Void attack: remove triangles (Table 1 "Removal/addition of
	// tetrahedrons").
	b.Shells[0].Tris = b.Shells[0].Tris[:10]
	d := Compare(a, b)
	if d.Identical(1e-9) {
		t.Error("tampered mesh reported identical")
	}
	if d.TriangleDelta != -2 {
		t.Errorf("TriangleDelta = %d, want -2", d.TriangleDelta)
	}
	// Scaling attack.
	c := boxMesh()
	c.Transform(geom.ScaleUniform(1.01))
	d = Compare(a, c)
	if d.Identical(1e-9) || d.VolumeDelta <= 0 {
		t.Errorf("scaling not detected: %+v", d)
	}
}

func TestFileSizeObservation(t *testing.T) {
	// §3.2: embedding a sphere makes the STL larger; solid and surface
	// spheres have identical STL sizes.
	prism := boxMesh()
	withSolid := boxMesh()
	solidSphere := mesh.SphereShell("s", "sphere", geom.V3(1, 1.5, 2), 0.5, 8, 16)
	withSolid.Shells = append(withSolid.Shells, solidSphere)
	withSurface := boxMesh()
	surfSphere := solidSphere
	surfSphere.Orient = mesh.OpenSurface
	withSurface.Shells = append(withSurface.Shells, surfSphere)

	szPrism := StatsOf(prism).BinaryBytes
	szSolid := StatsOf(withSolid).BinaryBytes
	szSurface := StatsOf(withSurface).BinaryBytes
	if szSolid <= szPrism {
		t.Errorf("sphere should enlarge STL: %d vs %d", szSolid, szPrism)
	}
	if szSolid != szSurface {
		t.Errorf("solid (%d) and surface (%d) sphere STL sizes should match", szSolid, szSurface)
	}
}

// Property: binary round-trip preserves triangle count and float32-rounded
// vertices for arbitrary triangles.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(xs [9]float64) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			xs[i] = geom.Clamp(xs[i], -1e6, 1e6)
		}
		m := &mesh.Mesh{Shells: []mesh.Shell{{Name: "p", Tris: []geom.Triangle{{
			A: geom.V3(xs[0], xs[1], xs[2]),
			B: geom.V3(xs[3], xs[4], xs[5]),
			C: geom.V3(xs[6], xs[7], xs[8]),
		}}}}}
		data, err := Marshal(m, Binary, "prop")
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil || got.TriangleCount() != 1 {
			return false
		}
		tr := got.Shells[0].Tris[0]
		want := m.Shells[0].Tris[0]
		tol := 1e-6 * (1 + want.A.Len() + want.B.Len() + want.C.Len())
		return tr.A.Eq(want.A, tol) && tr.B.Eq(want.B, tol) && tr.C.Eq(want.C, tol)
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ASCII and binary encodings of the same mesh decode to meshes
// with equal triangle counts and (nearly) equal volumes.
func TestDialectAgreement(t *testing.T) {
	m := boxMesh()
	bin, err := Marshal(m, Binary, "agree")
	if err != nil {
		t.Fatal(err)
	}
	asc, err := Marshal(m, ASCII, "agree")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Unmarshal(bin)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := Unmarshal(asc)
	if err != nil {
		t.Fatal(err)
	}
	if mb.TriangleCount() != ma.TriangleCount() {
		t.Errorf("triangle counts differ: %d vs %d", mb.TriangleCount(), ma.TriangleCount())
	}
	if math.Abs(mb.Volume()-ma.Volume()) > 1e-3 {
		t.Errorf("volumes differ: %v vs %v", mb.Volume(), ma.Volume())
	}
}

// Regression: a mesh named "solid ..." must not produce a binary file
// whose 80-byte header starts with the ASCII dialect's magic word. Before
// the header was sanitized, such files passed format sniffing only while
// their length exactly matched the facet count; one trailing byte (a
// newline appended in transit, a partial download) flipped detection to
// ASCII and the decode failed.
func TestBinaryHeaderNeverStartsWithSolid(t *testing.T) {
	m := boxMesh()
	for _, name := range []string{"solid", "solid part", "  solid indented", "solidify"} {
		data, err := Marshal(m, Binary, name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(bytes.TrimLeft(data[:binaryHeaderSize], " \t\r\n"), []byte("solid")) {
			t.Errorf("name %q: binary header starts with %q", name, data[:12])
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
		if got.TriangleCount() != 12 {
			t.Errorf("name %q: round-trip triangles = %d, want 12", name, got.TriangleCount())
		}
		// The sniffer-ambiguous case: the same file with one trailing byte
		// no longer length-matches the binary layout, so only the header
		// text keeps it out of the ASCII decoder.
		damaged, err := Unmarshal(append(append([]byte(nil), data...), '\n'))
		if err != nil {
			t.Fatalf("name %q with trailing byte: %v", name, err)
		}
		if damaged.TriangleCount() != 12 {
			t.Errorf("name %q with trailing byte: triangles = %d, want 12",
				name, damaged.TriangleCount())
		}
	}
	// Names that are not ambiguous pass through untouched.
	data, err := Marshal(m, Binary, "part-7")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("part-7")) {
		t.Errorf("unambiguous name rewritten: %q", data[:12])
	}
}

// Regression: facet counts above the uint32 limit must be rejected, not
// silently truncated into a corrupt file.
func TestBinaryTriangleCountRange(t *testing.T) {
	if err := checkBinaryTriangleCount(12); err != nil {
		t.Errorf("count 12 rejected: %v", err)
	}
	if err := checkBinaryTriangleCount(math.MaxUint32); err != nil {
		t.Errorf("count MaxUint32 rejected: %v", err)
	}
	if err := checkBinaryTriangleCount(math.MaxUint32 + 1); err == nil {
		t.Error("count 2^32 accepted; uint32 truncation would corrupt the file")
	}
	if err := checkBinaryTriangleCount(-1); err == nil {
		t.Error("negative count accepted")
	}
}

// Regression: BinarySize of a maximal binary STL (~200 GB) must not
// overflow; the previous int arithmetic wrapped on 32-bit platforms.
func TestBinarySizeNoOverflow(t *testing.T) {
	const maxCount = math.MaxUint32
	want := int64(84) + 50*int64(maxCount)
	if got := BinarySize(maxCount); got != want {
		t.Errorf("BinarySize(MaxUint32) = %d, want %d", got, want)
	}
	if BinarySize(maxCount) <= 0 {
		t.Error("BinarySize overflowed")
	}
}
