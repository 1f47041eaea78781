// Package cache is the repository's content-addressed singleflight
// cache: values are keyed by the SHA-256 of the canonical bytes that
// determine them, an LRU byte budget bounds residency, and singleflight
// coalescing makes N concurrent identical misses run the computation
// exactly once. It has two users:
//
//   - The job service (internal/serve) keeps manufactured artifacts
//     here, optionally tiered over a persistent Store (see
//     internal/cache/diskstore): a memory miss falls through to the
//     store before it falls through to the computation, and computed
//     values are written through, so results survive process restarts.
//     Because the key hashes the pipeline version, a deploy that changes
//     output bytes invalidates naturally — old objects just stop being
//     addressed.
//   - The quality matrix's shared-geometry stage memo (internal/memo)
//     keeps tessellated meshes and slicer indices here, one memory-only
//     cache per matrix pass.
//
// Contracts both rely on:
//
//   - Cached values are immutable. A hit returns the same value the miss
//     stored, so a repeated request is byte-for-byte identical to the
//     first; callers that need to mutate (e.g. orient a shared mesh)
//     must clone first.
//   - Errors are never cached: a failed computation propagates to every
//     coalesced waiter whose own run is also doomed, and the next
//     request retries from scratch.
//   - A waiter whose own context ends returns early with that context's
//     error; the leader keeps computing and still populates the cache.
//   - A waiter whose leader fails because the *leader's* context was
//     cancelled is promoted: it re-runs the computation itself instead
//     of inheriting a cancellation that was never its own.
//
// The two users differ only in how lookups are counted (see census). A
// cache from New or NewTiered counts hits, misses, coalesced joins and
// promotions separately as cache.* metrics on cache.lookup spans. A
// cache from NewMemo counts memo.builds and memo.reused on memo.lookup
// spans: a serial matrix pass resolves a repeated key as a hit where a
// pooled pass coalesces onto the in-flight leader, so the two are one
// outcome and the matrix's metric and trace censuses stay independent
// of scheduling.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// census maps lookup events onto obs handles and span labels; it is the
// only thing that differs between a serving cache and a stage memo.
type census struct {
	span     string          // trace span name of one lookup
	timer    *obs.StageTimer // times each lookup; nil for none
	stageArg bool            // tag spans with the key's stage (Key.stage)
	label    [4]string       // span outcome label, by Outcome
	count    [4]*obs.Counter // per-outcome counter, by Outcome; nil uncounted
	promoted *obs.Counter    // nil uncounted
	evicted  interface{ Add(int64) }
	bytes    *obs.Gauge
	entries  *obs.Gauge
}

var outcomeNames = [...]string{Hit: "hit", Miss: "miss", Coalesced: "coalesced", DiskHit: "disk_hit"}

// serveCensus splits every outcome for the serving tier. The process-wide
// registry aggregates across instances; per-instance numbers come from
// Cache.Stats. Disk hits are counted by the store (cache.disk.hits).
var serveCensus = census{
	span:  "cache.lookup",
	label: outcomeNames,
	count: [4]*obs.Counter{
		Hit:       obs.Default().Counter("cache.hits"),
		Miss:      obs.Default().Counter("cache.misses"),
		Coalesced: obs.Default().Counter("cache.coalesced"),
	},
	promoted: obs.Default().Counter("cache.promoted"),
	evicted:  obs.Default().Counter("cache.evictions"),
	bytes:    obs.Default().Gauge("cache.bytes"),
	entries:  obs.Default().Gauge("cache.entries"),
}

// memoCensus counts only what the key multiset decides: builds (misses)
// and reuses (hits and coalesced joins alike). Evictions and residency
// are gauges, because an LRU's eviction order under concurrency is a
// scheduling accident, and gauges stay out of the deterministic view.
var memoCensus = census{
	span:     "memo.lookup",
	timer:    obs.Stage("memo.lookup"),
	stageArg: true,
	label:    [4]string{Hit: "reused", Miss: "built", Coalesced: "reused"},
	count: [4]*obs.Counter{
		Hit:       obs.Default().Counter("memo.reused"),
		Miss:      obs.Default().Counter("memo.builds"),
		Coalesced: obs.Default().Counter("memo.reused"),
	},
	evicted: obs.Default().Gauge("memo.evictions"),
	bytes:   obs.Default().Gauge("memo.bytes"),
	entries: obs.Default().Gauge("memo.entries"),
}

var mStoreFails = obs.Default().Counter("cache.store.errors")

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Key is the content address of a cached result: the hex SHA-256 of the
// canonical request bytes, optionally behind a "stage/" tag.
type Key string

// KeyOf hashes canonical request bytes into a Key.
func KeyOf(canonical []byte) Key {
	sum := sha256.Sum256(canonical)
	return Key(hex.EncodeToString(sum[:]))
}

// stage returns the key's stage tag (the part before its first '/'), or
// the whole key when it has none.
func (k Key) stage() string {
	if i := strings.IndexByte(string(k), '/'); i >= 0 {
		return string(k[:i])
	}
	return string(k)
}

// Value is a cacheable result. SizeBytes is the value's residency cost
// against the byte budget and must be stable for the value's lifetime;
// cached values are immutable by contract.
type Value interface{ SizeBytes() int64 }

// Store is a persistent second tier under the in-memory LRU. Get
// reports a miss for absent or failed-integrity objects; Put is
// best-effort write-through — its error is counted, never propagated,
// so a flaky disk degrades the cache rather than failing jobs.
// Implementations must be safe for concurrent use.
type Store interface {
	Get(ctx context.Context, key Key) (data []byte, ok bool)
	Put(ctx context.Context, key Key, data []byte) error
}

// Codec translates cache values to and from the byte payloads a Store
// persists. Decode must reject payloads it cannot faithfully restore
// (a decode failure falls back to recomputation).
type Codec interface {
	Encode(v Value) ([]byte, error)
	Decode(data []byte) (Value, error)
}

// Outcome classifies how a GetOrCompute call was served.
type Outcome int

const (
	// Hit means the value was already resident in memory.
	Hit Outcome = iota
	// Miss means this caller ran the computation (the singleflight
	// leader).
	Miss
	// Coalesced means an identical in-flight computation was joined.
	Coalesced
	// DiskHit means the value was restored from the backing store
	// without running the computation.
	DiskHit
)

// String implements fmt.Stringer.
func (o Outcome) String() string { return outcomeNames[o] }

// Stats is a point-in-time census of one cache instance. For a stage
// memo, Misses are its builds and Hits+Coalesced its reuses.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	DiskHits  int64 `json:"disk_hits"`
	Promoted  int64 `json:"promoted"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// call is one in-flight singleflight computation. val and err are
// written before done closes; waiters read them only after <-done.
// ctx is the leader's context: after done, a waiter inspects it to
// distinguish "the computation failed" from "the leader was cancelled
// out from under me" (the latter promotes the waiter to re-run).
type call struct {
	done chan struct{}
	ctx  context.Context
	val  Value
	err  error
}

// entry is one resident value; list elements hold *entry.
type entry struct {
	key  Key
	val  Value
	size int64
}

// Cache is a content-addressed LRU cache with singleflight coalescing,
// optionally tiered over a persistent backing store. All methods are
// safe for concurrent use.
type Cache struct {
	census *census
	store  Store // nil for a memory-only cache
	codec  Codec

	mu     sync.Mutex
	max    int64 // byte budget; <= 0 means unbounded
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[Key]*list.Element
	flight map[Key]*call
	stats  Stats
}

func newCache(maxBytes int64, cs *census) *Cache {
	return &Cache{
		census: cs,
		max:    maxBytes,
		ll:     list.New(),
		items:  map[Key]*list.Element{},
		flight: map[Key]*call{},
	}
}

// New returns a memory-only serving cache with the given byte budget.
// maxBytes <= 0 means unbounded (no eviction) — useful for tests, not
// production serving.
func New(maxBytes int64) *Cache { return newCache(maxBytes, &serveCensus) }

// NewTiered returns a serving cache layered over a persistent store: a
// memory miss falls through to the store before it falls through to the
// computation, and computed values are written through. codec
// round-trips values through the store's byte payloads; both must be
// non-nil.
func NewTiered(maxBytes int64, store Store, codec Codec) *Cache {
	if store == nil || codec == nil {
		panic("cache: NewTiered requires a store and a codec")
	}
	c := New(maxBytes)
	c.store, c.codec = store, codec
	return c
}

// NewMemo returns a memory-only cache counted as a stage memo (memo.*
// metrics, memo.lookup spans tagged with the key's stage). It backs
// internal/memo.New.
func NewMemo(maxBytes int64) *Cache { return newCache(maxBytes, &memoCensus) }

// GetOrCompute returns the value for key, computing it with fn on a
// miss. Concurrent callers with the same key coalesce: exactly one runs
// fn (the leader, under the leader's ctx), the rest wait for its result.
// On a tiered cache the leader consults the backing store before
// running fn and writes computed values through to it. fn must return a
// non-nil Value on success. Errors are not cached; a failed computation
// propagates its error to every coalesced waiter — unless the failure
// was the leader's own context being cancelled, in which case a waiter
// whose context is still live is promoted and re-runs the computation
// itself. A waiter whose own ctx ends returns early with ctx.Err()
// while the leader keeps computing.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, fn func(ctx context.Context) (Value, error)) (v Value, out Outcome, err error) {
	cs := c.census
	var args []trace.Arg
	if cs.stageArg {
		args = []trace.Arg{trace.A("stage", key.stage())}
	}
	sctx, sp := trace.StartSpan(ctx, "stage", cs.span, args...)
	timer := cs.timer.Start()
	defer func() {
		sp.SetArg("outcome", cs.label[out])
		sp.End()
		timer.EndErr(err)
	}()

	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			inc(cs.count[Hit])
			v := el.Value.(*entry).val
			c.mu.Unlock()
			return v, Hit, nil
		}
		if cl, ok := c.flight[key]; ok {
			c.stats.Coalesced++
			inc(cs.count[Coalesced])
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err != nil && cl.ctx.Err() != nil && ctx.Err() == nil {
					// The leader failed because *its* context was
					// cancelled, not because the computation is doomed.
					// This waiter is still live — promote it: loop back
					// and re-run rather than inheriting the leader's
					// cancellation.
					c.mu.Lock()
					c.stats.Promoted++
					c.mu.Unlock()
					inc(cs.promoted)
					continue
				}
				return cl.val, Coalesced, cl.err
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{}), ctx: sctx}
		c.flight[key] = cl
		c.mu.Unlock()

		out = c.lead(sctx, key, cl, fn)
		return cl.val, out, cl.err
	}
}

// lead runs the leader's half of GetOrCompute: consult the backing
// store, fall through to fn, write through, publish to waiters.
func (c *Cache) lead(ctx context.Context, key Key, cl *call, fn func(ctx context.Context) (Value, error)) Outcome {
	out := Miss
	if c.store != nil {
		if data, ok := c.store.Get(ctx, key); ok {
			if v, err := c.codec.Decode(data); err == nil {
				cl.val, cl.err = v, nil
				out = DiskHit
			} else {
				// Undecodable payload (e.g. written by a build with a
				// different value layout): recompute and overwrite.
				mStoreFails.Inc()
			}
		}
	}
	if out != DiskHit {
		cl.val, cl.err = fn(ctx)
		if cl.err == nil && cl.val != nil && c.store != nil {
			if data, err := c.codec.Encode(cl.val); err != nil {
				mStoreFails.Inc()
			} else if err := c.store.Put(ctx, key, data); err != nil {
				mStoreFails.Inc()
			}
		}
	}

	c.mu.Lock()
	delete(c.flight, key)
	if cl.err == nil && cl.val != nil {
		c.addLocked(key, cl.val)
	}
	if out == DiskHit {
		c.stats.DiskHits++
	} else {
		c.stats.Misses++
	}
	inc(c.census.count[out])
	c.mu.Unlock()
	close(cl.done)
	return out
}

// addLocked makes a computed value resident, evicting least-recently-
// used entries until the byte budget holds again. A value larger than
// the whole budget is not retained (it still serves its leader and the
// coalesced waiters). Only a key's singleflight leader adds, and only
// after finding the key absent, so key is never already resident.
func (c *Cache) addLocked(key Key, v Value) {
	size := v.SizeBytes()
	if c.max > 0 && size > c.max {
		return
	}
	cs := c.census
	c.items[key] = c.ll.PushFront(&entry{key: key, val: v, size: size})
	c.bytes += size
	cs.bytes.Add(size)
	cs.entries.Add(1)
	for c.max > 0 && c.bytes > c.max {
		e := c.ll.Remove(c.ll.Back()).(*entry)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.stats.Evictions++
		cs.evicted.Add(1)
		cs.bytes.Add(-e.size)
		cs.entries.Add(-1)
	}
}

// Stats returns a snapshot of this instance's counters and residency.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = int64(len(c.items))
	s.Bytes = c.bytes
	s.MaxBytes = c.max
	return s
}
