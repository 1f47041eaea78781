// Package memo addresses the quality matrix's shared-geometry stage memo:
// Keyed derives the content address of a stage artifact (a tessellated
// master mesh, a slicer z-sweep index) from the exact inputs that
// determine it, and New returns the internal/cache instance that holds
// them, so N concurrent matrix keys that need the same artifact compute
// it exactly once.
//
// The memo is an ordinary cache.Cache with two deliberate differences
// from the serving cache:
//
//   - It is memory-only: values are in-memory artifacts, not
//     serialisable results, so there is no disk tier and no codec.
//   - It is counted by key multiset, not by scheduling: memo.builds and
//     memo.reused (hits and coalesced joins alike) are the only
//     counters, so serial == pool-of-N metric and trace censuses hold.
//
// The intended lifetime is one matrix pass: core.QualityMatrixWorkers
// creates a fresh memo per run, so warm state never leaks between runs.
// Longer-lived memos are allowed, but then the caller owns the
// determinism story.
package memo

import (
	"crypto/sha256"
	"encoding/hex"

	"obfuscade/internal/cache"
)

// Key addresses one memoized stage artifact: a stage tag, a '/', and the
// hex SHA-256 of the canonical input bytes. Build it with Keyed.
type Key = cache.Key

// Keyed derives a Key from a stage tag, a schema-version string (bump it
// whenever the stage's output bytes change — the memo analogue of
// core.PipelineVersion invalidation), and the canonical input parts. The
// parts are length-prefix separated before hashing so ("ab","c") and
// ("a","bc") cannot collide.
func Keyed(stage, version string, parts ...[]byte) Key {
	h := sha256.New()
	var lenBuf [8]byte
	writePart := func(p []byte) {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:])
		h.Write(p)
	}
	writePart([]byte(version))
	for _, p := range parts {
		writePart(p)
	}
	return Key(stage + "/" + hex.EncodeToString(h.Sum(nil)))
}

// New returns an empty stage memo with the given byte budget. maxBytes
// <= 0 means unbounded — the right setting for a per-matrix-run memo,
// whose residency is bounded by the key space itself.
func New(maxBytes int64) *cache.Cache { return cache.NewMemo(maxBytes) }
