// Freelist for the dominant allocation source of the virtual printer:
// grid cell storage (one multi-megabyte []Material per build).
//
// Pooling is invisible in every deterministic artifact: recycled storage
// is cleared before use, pool hits are never counted (sync.Pool reuse
// depends on GC timing and scheduling, so a hit counter would break the
// serial-equals-parallel metrics contract), and a released grid fails
// loudly (nil cells) if used again.
package voxel

import "sync"

// cellPool recycles grid cell storage between builds.
var cellPool sync.Pool

// getCells returns a zeroed []Material of the given length, recycling
// pooled storage when its capacity suffices.
func getCells(total int) []Material {
	if v := cellPool.Get(); v != nil {
		c := v.([]Material)
		if cap(c) >= total {
			c = c[:total]
			clear(c)
			return c
		}
	}
	return make([]Material, total)
}

// Release returns the grid's cell storage to the package freelist and
// leaves the grid unusable (any further access panics on the nil cells
// slice — loud, rather than silently reading recycled memory). Callers
// that retain the grid in a result — e.g. a Build a caller will inspect —
// must not release it; the quality matrix releases per-key grids after
// grading and provenance capture, when nothing downstream reads voxels.
func (g *Grid) Release() {
	if g == nil || g.cells == nil {
		return
	}
	cellPool.Put(g.cells[:0])
	g.cells = nil
}
