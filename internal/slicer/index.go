package slicer

import (
	"context"
	"fmt"
	"math"
	"sync"

	"obfuscade/internal/geom"
	"obfuscade/internal/mesh"
	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// Index metrics: build latency plus deterministic size counters. The
// crossing count is exactly the number of (triangle, layer) pairs the
// indexed kernel visits, so layers_per_second regressions can be
// correlated with workload growth rather than guessed at. The rejected
// counter counts injected indexes that failed the compatibility guard
// (a caller bug — content-addressed memo keys make it structurally
// impossible); they fall back to a fresh build, never to wrong output.
var (
	stIndexBuild    = trace.NewStage("stage", "slicer.index.build")
	mIndexTris      = obs.Default().Counter("slicer.index.triangles")
	mIndexCrossings = obs.Default().Counter("slicer.index.crossings")
	mIndexRejected  = obs.Default().Counter("slicer.index.rejected")
)

// sweepIndex maps every layer to the triangles whose z-extent spans its
// slicing plane, one bucket list per (shell, layer). It is built once per
// SliceIndexedCtx in O(T + crossings) from the mesh's ZSpans view and is
// read-only afterwards, so the parallel layer fan-out shares it without
// locks.
//
// Bucket ranges are conservative by up to one layer on each side (float
// guard): Triangle.IntersectPlaneZ re-checks the exact transversality
// condition, so a conservative bucket can only add cheap rejections, never
// change the output. Within a bucket, triangle indices are ascending —
// the same visiting order as the naive full rescan — which is what keeps
// the indexed kernel byte-identical to sliceShellNaive.
type sweepIndex struct {
	shells []shellIndex
}

// shellIndex is one shell's layer buckets in arena form: bucket i is
// tris[off[i]:off[i+1]].
type shellIndex struct {
	off  []int32
	tris []int32
}

// layer returns the ascending triangle indices bucketed for layer i.
func (ix *shellIndex) layer(i int) []int32 {
	return ix.tris[ix.off[i]:ix.off[i+1]]
}

// layerSpan converts a z-interval to a conservative [lo, hi] layer range
// for planes at z = minZ + (i+0.5)*h, clamped to [0, nLayers).
func layerSpan(zmin, zmax, minZ, h float64, nLayers int) (lo, hi int) {
	lo = int(math.Floor((zmin - minZ) / h))
	hi = int(math.Ceil((zmax-minZ)/h - 0.5))
	if lo < 0 {
		lo = 0
	}
	if hi > nLayers-1 {
		hi = nLayers - 1
	}
	return lo, hi
}

// buildSweepIndex builds the per-shell layer buckets for a slice run.
// The stage span and timing are emitted here — not at the call sites —
// so the trace census and stage histograms are identical whether the
// index is built inline by SliceIndexedCtx or inside a memo build closure.
func buildSweepIndex(ctx context.Context, m *mesh.Mesh, minZ, layerH float64, nLayers int) *sweepIndex {
	_, sp := stIndexBuild.Start(ctx)
	defer sp.End()

	ix := &sweepIndex{shells: make([]shellIndex, len(m.Shells))}
	var spans []mesh.ZSpan
	var tris, crossings int64
	for si := range m.Shells {
		spans = m.Shells[si].ZSpans(spans)
		tris += int64(len(spans))
		counts := make([]int32, nLayers)
		total := 0
		for _, sp := range spans {
			lo, hi := layerSpan(sp.Min, sp.Max, minZ, layerH, nLayers)
			for l := lo; l <= hi; l++ {
				counts[l]++
				total++
			}
		}
		sh := shellIndex{
			off:  make([]int32, nLayers+1),
			tris: make([]int32, total),
		}
		var acc int32
		for l, c := range counts {
			sh.off[l] = acc
			acc += c
		}
		sh.off[nLayers] = acc
		// Fill in triangle order so every bucket is ascending; the cursor
		// trick advances off[l] while filling and restores it afterwards.
		for ti, sp := range spans {
			lo, hi := layerSpan(sp.Min, sp.Max, minZ, layerH, nLayers)
			for l := lo; l <= hi; l++ {
				sh.tris[sh.off[l]] = int32(ti)
				sh.off[l]++
			}
		}
		for l := nLayers - 1; l > 0; l-- {
			sh.off[l] = sh.off[l-1]
		}
		if nLayers > 0 {
			sh.off[0] = 0
		}
		ix.shells[si] = sh
		crossings += int64(total)
	}
	mIndexTris.Add(tris)
	mIndexCrossings.Add(crossings)
	return ix
}

// Index is an immutable, shareable z-sweep index over one oriented mesh
// at one layer height — the serial prologue of a slice run, detached so
// near-duplicate jobs (the same STL bytes sliced again, e.g. by a stage
// memo replaying a matrix key) reuse it instead of rebuilding. It holds
// only triangle ordinals, never mesh pointers, so it is valid for any
// mesh whose triangles are byte-identical to the one it was built from;
// the compatibility guard in SliceIndexedCtx re-derives the cheap shape
// facts (layer grid, shell sizes) and rejects anything else.
type Index struct {
	sweep       *sweepIndex
	minZ        float64
	layerHeight float64
	nLayers     int
	// shellTris is the per-shell triangle count — with the content hash
	// the memo keys on, enough to reject a structurally foreign mesh.
	shellTris []int
}

// layerCount is the shared layer-grid derivation of SliceIndexedCtx and
// BuildIndex; the two must agree or an injected index would silently
// bucket for a different grid.
func layerCount(bounds geom.AABB, layerH float64) (int, error) {
	n := int(math.Ceil((bounds.Max.Z - bounds.Min.Z) / layerH))
	if n <= 0 {
		n = 1
	}
	if n > 100000 {
		return 0, fmt.Errorf("slicer: %d layers exceed sanity limit (layer height %g)", n, layerH)
	}
	return n, nil
}

// BuildIndex builds the z-sweep index for slicing m under opts, for
// injection into SliceIndexedCtx. The index is read-only after return
// and safe to share across concurrent slice runs.
func BuildIndex(ctx context.Context, m *mesh.Mesh, opts Options) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	bounds := m.Bounds()
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("slicer: empty mesh")
	}
	nLayers, err := layerCount(bounds, opts.LayerHeight)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		minZ:        bounds.Min.Z,
		layerHeight: opts.LayerHeight,
		nLayers:     nLayers,
		shellTris:   make([]int, len(m.Shells)),
	}
	for si := range m.Shells {
		ix.shellTris[si] = len(m.Shells[si].Tris)
	}
	ix.sweep = buildSweepIndex(ctx, m, bounds.Min.Z, opts.LayerHeight, nLayers)
	return ix, nil
}

// SizeBytes reports the index's memory residency, for memo byte budgets.
func (ix *Index) SizeBytes() int64 {
	var n int64
	for _, sh := range ix.sweep.shells {
		n += int64(len(sh.off)+len(sh.tris)) * 4
	}
	return n + int64(len(ix.shellTris))*8
}

// compatible reports whether the index was built for exactly this layer
// grid and shell structure.
func (ix *Index) compatible(m *mesh.Mesh, minZ, layerH float64, nLayers int) bool {
	if ix == nil || ix.sweep == nil ||
		ix.minZ != minZ || ix.layerHeight != layerH || ix.nLayers != nLayers ||
		len(ix.shellTris) != len(m.Shells) {
		return false
	}
	for si := range m.Shells {
		if ix.shellTris[si] != len(m.Shells[si].Tris) {
			return false
		}
	}
	return true
}

// chainSeg is one directed cross-section segment awaiting chaining.
type chainSeg struct{ a, b geom.Vec2 }

// chainScratch is the reusable working set of one sliceShell call: the
// segment list, the snap-grid cell table and its arena-backed per-cell
// index lists, and the consumed bitset. Pooled so the parallel layer
// fan-out stays allocation-flat regardless of layer count.
type chainScratch struct {
	segs    []chainSeg
	cellOf  map[[2]int64]int32 // quantised start point -> dense cell id
	segCell []int32            // per segment: its cell id
	cellCnt []int32            // per cell: live entry count (shrinks on take)
	cellOff []int32            // per cell: arena offset
	entries []int32            // arena of segment indices, ascending per cell
	used    []bool             // consumed segments (loop seeds and takes)
}

var chainScratchPool = sync.Pool{New: func() any {
	return &chainScratch{cellOf: make(map[[2]int64]int32)}
}}

// grow returns b resized to n, reallocating only when capacity is short.
// Contents are unspecified; callers overwrite or zero what they need.
func grow(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}
