package stego

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"obfuscade/internal/slicer"
	"obfuscade/internal/stl"
)

// The tentpole property, end to end: take a canonical design file C,
// let an attacker embed a payload through any channel combination, then
// sanitize. The sanitized mesh must (1) equal C exactly, (2) slice
// byte-identically to C, on two independent slicer runs, and (3) carry
// no recoverable payload — extraction fails outright, it does not
// return garbage. The slicer is the production indexed kernel; its
// equality with the naive reference kernels is slicer's own
// TestSliceMatchesNaive* property, so the "naive" names below refer to
// that proven-equal oracle.
func TestSanitizeDestroysChannelsSliceByteIdentical(t *testing.T) {
	channels := []Channel{
		ChannelFacetOrder,
		ChannelCoordLSB,
		ChannelFacetOrder | ChannelCoordLSB,
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		orig := testMesh(rng, 15) // 180 facets
		c := Sanitize(orig, Options{})
		wantSlice, err := slicer.SliceIndexedCtx(context.Background(), c, slicer.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1+rng.Intn(40))
		rng.Read(payload)

		for _, ch := range channels {
			emb, err := Embed(c, payload, Options{Channels: ch})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, ch, err)
			}
			if rep := Detect(emb, Options{}); !rep.Suspicious() {
				t.Fatalf("trial %d %s: detector missed the embedding: %+v", trial, ch, rep)
			}

			s := Sanitize(emb, Options{})
			if !reflect.DeepEqual(s, c) {
				t.Fatalf("trial %d %s: sanitized mesh differs from pre-embed original", trial, ch)
			}
			if rep := Detect(s, Options{}); rep.Suspicious() {
				t.Fatalf("trial %d %s: detector still suspicious after sanitize: %+v", trial, ch, rep)
			}

			gotNaive, err := slicer.SliceIndexedCtx(context.Background(), s, slicer.DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotNaive, wantSlice) {
				t.Fatalf("trial %d %s: naive-kernel slice differs after embed+sanitize", trial, ch)
			}
			gotIndexed, err := slicer.SliceIndexedCtx(context.Background(), s, slicer.DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotIndexed, gotNaive) {
				t.Fatalf("trial %d %s: indexed slice differs from naive oracle", trial, ch)
			}

			// Unrecoverability: no channel yields the payload — or any
			// payload — from the sanitized mesh.
			for _, ex := range []Channel{ChannelFacetOrder, ChannelCoordLSB} {
				if got, err := Extract(s, ex, Options{}); err == nil {
					t.Fatalf("trial %d %s: payload %x recovered via %s after sanitize", trial, ch, got, ex)
				}
			}
		}
	}
}

// The same guarantee at the wire level, the shape the service relies on
// for content addressing: sanitizing the attacker's STL bytes yields
// bytes identical to sanitizing the original file, and re-sanitizing
// the output is the identity.
func TestSanitizeSTLCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	orig := testMesh(rng, 12)
	origSTL, err := stl.Marshal(orig, stl.Binary, "part")
	if err != nil {
		t.Fatal(err)
	}
	cleanSTL, rep, err := SanitizeSTL(origSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != Version || rep.Triangles != orig.TriangleCount() || rep.Quantum != DefaultQuantum {
		t.Fatalf("report = %+v", rep)
	}
	if rep.After.Suspicious() {
		t.Fatalf("sanitized output still suspicious: %+v", rep.After)
	}

	payload := []byte("stolen blueprint fragment")
	emb, err := Embed(orig, payload, Options{})
	if err != nil {
		t.Fatal(err)
	}
	embSTL, err := stl.Marshal(emb, stl.Binary, "part")
	if err != nil {
		t.Fatal(err)
	}
	// The payload survives the STL wire format round trip...
	decoded, err := stl.Unmarshal(embSTL)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []Channel{ChannelFacetOrder, ChannelCoordLSB} {
		got, err := Extract(decoded, ch, Options{})
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload lost in STL round trip: %q, %v", ch, got, err)
		}
	}
	// ...and sanitizing the stego file reproduces the canonical bytes.
	fromEmb, rep2, err := SanitizeSTL(embSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Before.Suspicious() {
		t.Fatalf("detector missed wire-level embedding: %+v", rep2.Before)
	}
	if !bytes.Equal(fromEmb, cleanSTL) {
		t.Fatal("sanitized stego STL differs from sanitized original STL")
	}
	again, _, err := SanitizeSTL(cleanSTL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, cleanSTL) {
		t.Fatal("sanitize is not idempotent at the byte level")
	}
}

func TestSanitizeSTLRejectsGarbage(t *testing.T) {
	if _, _, err := SanitizeSTL([]byte("not an stl"), Options{}); err == nil {
		t.Fatal("garbage input must error")
	}
	// Non-finite coordinates are rejected by the hardened decoder
	// before they can poison the sanitizer.
	bad := "solid x\nfacet normal 0 0 1\nouter loop\nvertex NaN 0 0\nvertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid x\n"
	if _, _, err := SanitizeSTL([]byte(bad), Options{}); err == nil {
		t.Fatal("non-finite input must error")
	}
}
