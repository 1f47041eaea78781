package stego

import (
	"bytes"
	"math/rand"
	"testing"

	"obfuscade/internal/stl"
)

// FuzzSanitizeSTL feeds arbitrary POST /sanitize bodies to SanitizeSTL.
// Invariants: it never panics, and an accepted body's output carries the
// fixed header and sanitizes again to identical bytes. Run with
// `go test -fuzz=FuzzSanitizeSTL ./internal/stego`; the seeds run as a
// regular test.
func FuzzSanitizeSTL(f *testing.F) {
	m := testMesh(rand.New(rand.NewSource(5)), 3)
	for _, format := range []stl.Format{stl.Binary, stl.ASCII} {
		data, err := stl.Marshal(m, format, "part")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	emb, err := Embed(m, []byte("payload"), Options{})
	if err != nil {
		f.Fatal(err)
	}
	data, err := stl.Marshal(emb, stl.Binary, "secret in the header")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A solid name that a re-read would replace must not reach the
	// output header.
	f.Add([]byte("solid \x00"))
	// Finite in float64 but +Inf once written as binary float32.
	f.Add([]byte("solid x\nfacet normal 0 0 1\nouter loop\nvertex 1e100 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		out, _, err := SanitizeSTL(body, Options{})
		if err != nil {
			return
		}
		if !bytes.HasPrefix(out, []byte(sanitizedHeader+"\x00")) {
			t.Fatalf("output header %q is not the fixed %q", out[:80], sanitizedHeader)
		}
		again, _, err := SanitizeSTL(out, Options{})
		if err != nil {
			t.Fatalf("sanitized output does not sanitize again: %v", err)
		}
		if !bytes.Equal(again, out) {
			t.Fatal("sanitizing the output changed its bytes")
		}
	})
}
