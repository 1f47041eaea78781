package supplychain

import (
	"context"
	"reflect"
	"testing"

	"obfuscade/internal/mech"
	"obfuscade/internal/memo"
	"obfuscade/internal/printer"
	"obfuscade/internal/tessellate"
)

// The memoized pipeline must be byte-identical to the reference path:
// the memo trades time and allocations, never content. Every stage
// artifact of every (resolution, orientation) combination is compared
// against a nil-Memo run, with the memo shared across combinations so
// cross-key reuse actually happens (same resolution, both orientations
// share one tessellation).
func TestMemoizedPipelineByteIdentical(t *testing.T) {
	part := barPart(t)
	mm := memo.New(0)
	for _, res := range []tessellate.Resolution{tessellate.Coarse, tessellate.Fine} {
		for _, o := range []mech.Orientation{mech.XY, mech.XZ} {
			pl := Pipeline{Resolution: res, Orientation: o, Printer: printer.DimensionElite()}
			ref, err := pl.Execute(part)
			if err != nil {
				t.Fatalf("%s/%v reference: %v", res.Name, o, err)
			}
			pl.Memo = mm
			got, err := pl.Execute(part)
			if err != nil {
				t.Fatalf("%s/%v memoized: %v", res.Name, o, err)
			}
			// Stage wall times are the only fields allowed to differ.
			ref.StageSeconds, got.StageSeconds = nil, nil
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s/%v: memoized run diverges from reference", res.Name, o)
			}
		}
	}
	st := mm.Stats()
	// 2 resolutions x 2 orientations: tessellation is orientation-blind so
	// only 2 builds; the z-sweep index keys on orientation so 4 builds.
	if st.Misses != 2+4 {
		t.Errorf("memo builds = %d, want 6 (2 tess + 4 index)", st.Misses)
	}
	if st.Hits+st.Coalesced != 2 {
		t.Errorf("memo reuses = %d, want 2 (one tess hit per resolution)", st.Hits+st.Coalesced)
	}
}

// A memoized mesh is shared between keys; consumers transform their own
// clone. Mutating one run's mesh must not leak into a later run that
// reuses the memo entry.
func TestMemoizedMeshImmutable(t *testing.T) {
	part := barPart(t)
	mm := memo.New(0)
	pl := Pipeline{Resolution: tessellate.Coarse, Orientation: mech.XZ,
		Printer: printer.DimensionElite(), Memo: mm}
	first, err := pl.Execute(part)
	if err != nil {
		t.Fatal(err)
	}
	// The XZ path rotated its clone; a reuse of the same tess entry must
	// still see the unrotated master.
	again, err := pl.Execute(part)
	if err != nil {
		t.Fatal(err)
	}
	if string(first.STLBytes) != string(again.STLBytes) {
		t.Error("repeated memoized run changed STL bytes: shared mesh was mutated")
	}
	if st := mm.Stats(); st.Misses != 2 {
		t.Errorf("builds = %d, want 2 (tess + index built once, reused after)", st.Misses)
	}
}

// Memoized build closures must propagate context cancellation instead of
// caching a partial artifact.
func TestMemoizedPipelineCancellation(t *testing.T) {
	part := barPart(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := Pipeline{Resolution: tessellate.Coarse, Orientation: mech.XY,
		Printer: printer.DimensionElite(), Memo: memo.New(0)}
	if _, err := pl.ExecuteCtx(ctx, part); err == nil {
		t.Error("cancelled memoized run returned nil error")
	}
}
