package memo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obfuscade/internal/cache"
	"obfuscade/internal/obs"
)

// artifact is a test stage artifact of a declared size.
type artifact struct {
	id   string
	size int64
}

func (a *artifact) SizeBytes() int64 { return a.size }

// census reads the memo's deterministic counters.
func census() (builds, reused int64) {
	return obs.Default().Counter("memo.builds").Value(), obs.Default().Counter("memo.reused").Value()
}

func TestKeyedSeparatesParts(t *testing.T) {
	if Keyed("tess", "v1", []byte("ab"), []byte("c")) == Keyed("tess", "v1", []byte("a"), []byte("bc")) {
		t.Error("length-prefix separation failed: shifted parts collide")
	}
	if Keyed("tess", "v1", []byte("a")) == Keyed("tess", "v2", []byte("a")) {
		t.Error("version not mixed into the key")
	}
	if Keyed("tess", "v1", []byte("a")) == Keyed("zidx", "v1", []byte("a")) {
		t.Error("stage tag not part of the key")
	}
	if k := Keyed("tess", "v1", []byte("a")); k[:5] != "tess/" {
		t.Errorf("key %q does not lead with its stage tag", k)
	}
}

// A memo from New counts a first lookup as a build and a repeat as a
// reuse.
func TestDoBuildsOnceThenReuses(t *testing.T) {
	m := New(0)
	ctx := context.Background()
	k := Keyed("tess", "v1", []byte("part"))
	b0, r0 := census()
	for i := 0; i < 2; i++ {
		v, _, err := m.GetOrCompute(ctx, k, func(context.Context) (cache.Value, error) {
			return &artifact{id: "artifact", size: 8}, nil
		})
		if err != nil || v.(*artifact).id != "artifact" {
			t.Fatalf("lookup %d = (%v, %v)", i, v, err)
		}
	}
	if b, r := census(); b-b0 != 1 || r-r0 != 1 {
		t.Errorf("memo.builds/reused moved by %d/%d, want 1/1", b-b0, r-r0)
	}
}

// Concurrent identical lookups count one build and N-1 reuses, whether a
// given reuse was a hit or a coalesced join.
func TestConcurrentCoalescing(t *testing.T) {
	m := New(0)
	release := make(chan struct{})
	const waiters = 8
	b0, r0 := census()
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.GetOrCompute(context.Background(), "tess/k", func(context.Context) (cache.Value, error) {
				<-release
				return &artifact{id: "shared", size: 4}, nil
			})
		}()
	}
	// Let the flight assemble, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if b, r := census(); b-b0 != 1 || r-r0 != waiters-1 {
		t.Errorf("memo.builds/reused moved by %d/%d, want 1/%d", b-b0, r-r0, waiters-1)
	}
}

// TestPoolOf8Hammer drives a matrix-shaped workload — few hot keys, 8
// workers — through one memo. The census depends only on the key
// multiset: exactly one build per distinct key, and every other lookup a
// reuse, regardless of interleaving.
func TestPoolOf8Hammer(t *testing.T) {
	m := New(1 << 20)
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = Keyed("tess", "v1", []byte(fmt.Sprintf("part-%d", i%3)))
	}
	const workers, iters = 8, 200
	b0, r0 := census()
	var builds atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				k := keys[(w+iter)%len(keys)]
				v, _, err := m.GetOrCompute(context.Background(), k, func(context.Context) (cache.Value, error) {
					builds.Add(1)
					return &artifact{id: string(k), size: 64}, nil
				})
				if err != nil || v.(*artifact).id != string(k) {
					t.Errorf("worker %d: got (%v, %v) for key %s", w, v, err, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// 6 key strings collapse to 3 distinct hashes (i%3).
	if builds.Load() != 3 {
		t.Errorf("hammer built %d artifacts, want 3", builds.Load())
	}
	if b, r := census(); b-b0 != 3 || r-r0 != workers*iters-3 {
		t.Errorf("memo.builds/reused moved by %d/%d, want 3/%d", b-b0, r-r0, workers*iters-3)
	}
}
