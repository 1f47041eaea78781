package cache

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"obfuscade/internal/obs"
	"obfuscade/internal/trace"
)

// blob is a test Value of a declared size.
type blob struct {
	id   string
	size int64
}

func (b *blob) SizeBytes() int64 { return b.size }

// compute returns a computation yielding a blob.
func compute(id string, size int64) func(context.Context) (Value, error) {
	return func(context.Context) (Value, error) { return &blob{id: id, size: size}, nil }
}

// censuses are the two counter tables; every contract below must hold
// under both.
var censuses = []struct {
	name string
	new  func(maxBytes int64) *Cache
}{
	{"serve", New},
	{"memo", NewMemo},
}

func eachCensus(t *testing.T, test func(t *testing.T, newCache func(int64) *Cache)) {
	for _, cs := range censuses {
		t.Run(cs.name, func(t *testing.T) { test(t, cs.new) })
	}
}

// resident peeks at the LRU without refreshing recency.
func resident(c *Cache, key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal(what)
		case <-time.After(time.Millisecond):
		}
	}
}

func coalesced(c *Cache) func() bool {
	return func() bool { return c.Stats().Coalesced == 1 }
}

func TestKeyOfStable(t *testing.T) {
	a := KeyOf([]byte("canonical-request"))
	b := KeyOf([]byte("canonical-request"))
	if a != b {
		t.Fatalf("same bytes hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(a))
	}
	if KeyOf([]byte("other")) == a {
		t.Fatal("distinct bytes collide")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(30)
		ctx := context.Background()
		for _, k := range []Key{"a", "b", "c"} {
			c.GetOrCompute(ctx, k, compute(string(k), 10))
		}
		// Touch "a" so "b" becomes the least recently used.
		if _, out, _ := c.GetOrCompute(ctx, "a", compute("a", 10)); out != Hit {
			t.Fatalf("a: outcome %v before eviction, want hit", out)
		}
		c.GetOrCompute(ctx, "d", compute("d", 10))
		if resident(c, "b") {
			t.Fatal("LRU entry b survived eviction")
		}
		for _, k := range []Key{"a", "c", "d"} {
			if !resident(c, k) {
				t.Fatalf("entry %s evicted out of LRU order", k)
			}
		}
		s := c.Stats()
		if s.Evictions != 1 || s.Entries != 3 || s.Bytes != 30 || s.MaxBytes != 30 {
			t.Fatalf("stats = %+v, want 1 eviction and 3 entries in 30 of 30 bytes", s)
		}
	})
}

func TestOversizeValueNotCached(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(100)
		ctx := context.Background()
		// An oversized value still serves its caller.
		v, out, err := c.GetOrCompute(ctx, "big", compute("big", 101))
		if err != nil || out != Miss || v.(*blob).id != "big" {
			t.Fatalf("oversized: v=%v out=%v err=%v", v, out, err)
		}
		if resident(c, "big") {
			t.Fatal("value larger than the whole budget was cached")
		}
		c.GetOrCompute(ctx, "fits", compute("ok", 100))
		if !resident(c, "fits") {
			t.Fatal("budget-sized value rejected")
		}
	})
}

func TestGetOrComputeHitMiss(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		calls := 0
		fn := func(context.Context) (Value, error) {
			calls++
			return &blob{id: "v", size: 1}, nil
		}
		v, out, err := c.GetOrCompute(context.Background(), "k", fn)
		if err != nil || out != Miss || v.(*blob).id != "v" {
			t.Fatalf("first call: v=%v out=%v err=%v", v, out, err)
		}
		v, out, err = c.GetOrCompute(context.Background(), "k", fn)
		if err != nil || out != Hit || v.(*blob).id != "v" {
			t.Fatalf("second call: v=%v out=%v err=%v", v, out, err)
		}
		if calls != 1 {
			t.Fatalf("fn ran %d times, want 1", calls)
		}
		s := c.Stats()
		if s.Hits != 1 || s.Misses != 1 || s.Coalesced != 0 || s.Entries != 1 || s.Bytes != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

func TestErrorsNotCached(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		boom := errors.New("boom")
		calls := 0
		_, out, err := c.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) || out != Miss {
			t.Fatalf("out=%v err=%v", out, err)
		}
		// The failure must not poison the key: the next call recomputes.
		v, out, err := c.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
			calls++
			return &blob{id: "ok", size: 1}, nil
		})
		if err != nil || out != Miss || v.(*blob).id != "ok" {
			t.Fatalf("retry: v=%v out=%v err=%v", v, out, err)
		}
		if calls != 2 {
			t.Fatalf("calls = %d, want 2", calls)
		}
		if s := c.Stats(); s.Entries != 1 {
			t.Fatalf("entries = %d, want 1 (error not retained)", s.Entries)
		}
	})
}

// Singleflight: N concurrent identical requests run the computation
// exactly once; everyone gets the same value.
func TestSingleflightExactlyOnce(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		const goroutines = 32
		var computations atomic.Int64
		gate := make(chan struct{})    // holds the leader inside fn
		arrived := make(chan struct{}) // leader signals it is computing
		fn := func(context.Context) (Value, error) {
			computations.Add(1)
			close(arrived)
			<-gate
			return &blob{id: "once", size: 1}, nil
		}

		var wg sync.WaitGroup
		outcomes := make([]Outcome, goroutines)
		values := make([]Value, goroutines)
		errs := make([]error, goroutines)
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				values[i], outcomes[i], errs[i] = c.GetOrCompute(context.Background(), "k", fn)
			}(i)
		}
		<-arrived
		// Give the remaining goroutines time to enqueue as waiters, then
		// release the leader.
		time.Sleep(10 * time.Millisecond)
		close(gate)
		wg.Wait()

		if n := computations.Load(); n != 1 {
			t.Fatalf("computation ran %d times, want exactly 1", n)
		}
		misses := 0
		for i := 0; i < goroutines; i++ {
			if errs[i] != nil {
				t.Fatalf("goroutine %d: %v", i, errs[i])
			}
			if values[i].(*blob).id != "once" {
				t.Fatalf("goroutine %d got %v", i, values[i])
			}
			if outcomes[i] == Miss {
				misses++
			}
		}
		if misses != 1 {
			t.Fatalf("%d goroutines were leaders, want 1", misses)
		}
		if s := c.Stats(); s.Misses != 1 || s.Hits+s.Coalesced != goroutines-1 {
			t.Fatalf("stats = %+v, want 1 miss and %d hits+coalesced", s, goroutines-1)
		}
	})
}

// A waiter whose context dies leaves the leader running; the leader
// still populates the cache.
func TestWaiterContextCancellation(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		gate := make(chan struct{})
		arrived := make(chan struct{})
		go c.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
			close(arrived)
			<-gate
			return &blob{id: "v", size: 1}, nil
		})
		<-arrived
		ctx, cancel := context.WithCancel(context.Background())
		waiterErr := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) (Value, error) {
				t.Error("waiter must never compute")
				return nil, nil
			})
			waiterErr <- err
		}()
		// Let the waiter register, then cancel only its context.
		waitFor(t, "waiter never registered", coalesced(c))
		cancel()
		if err := <-waiterErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
		close(gate)
		// The leader completes and caches despite the waiter's departure.
		waitFor(t, "leader never populated the cache", func() bool { return resident(c, "k") })
	})
}

// Concurrency hammer (run under -race): many goroutines mixing hits,
// misses and evictions on a tight byte budget, with singleflight
// exactness asserted per unique key.
func TestConcurrencyHammer(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		const (
			goroutines = 16
			iterations = 200
			uniqueKeys = 24
		)
		// Budget fits only half the key space, so evictions churn constantly.
		c := newCache(uniqueKeys / 2 * 10)
		var perKey [uniqueKeys]atomic.Int64 // computations per key between evictions

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iterations; i++ {
					k := (g*7 + i) % uniqueKeys
					key := Key(fmt.Sprintf("key-%02d", k))
					v, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) (Value, error) {
						perKey[k].Add(1)
						return &blob{id: string(key), size: 10}, nil
					})
					if err != nil {
						t.Errorf("key %s: %v", key, err)
						return
					}
					if v.(*blob).id != string(key) {
						t.Errorf("key %s returned value %q", key, v.(*blob).id)
						return
					}
				}
			}(g)
		}
		wg.Wait()

		s := c.Stats()
		total := s.Hits + s.Misses + s.Coalesced
		if total != goroutines*iterations {
			t.Fatalf("outcomes %d != requests %d (stats %+v)", total, goroutines*iterations, s)
		}
		if s.Evictions == 0 {
			t.Fatal("hammer never evicted; budget too large for the test to bite")
		}
		if s.Hits == 0 || s.Misses == 0 {
			t.Fatalf("hammer must mix hits and misses: %+v", s)
		}
		if s.Bytes > s.MaxBytes {
			t.Fatalf("resident bytes %d exceed budget %d", s.Bytes, s.MaxBytes)
		}
		// Every computation must correspond to a miss: singleflight never let
		// two concurrent identical requests both compute.
		var computed int64
		for k := range perKey {
			computed += perKey[k].Load()
		}
		if computed != s.Misses {
			t.Fatalf("computations %d != misses %d: coalescing leaked", computed, s.Misses)
		}
	})
}

// The promotion contract: when the leader fails because its own context
// was cancelled, a live waiter re-runs the computation instead of
// inheriting the leader's cancellation.
func TestWaiterPromotedOnLeaderCancellation(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		inFn := make(chan struct{})
		var runs atomic.Int64

		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrCompute(leaderCtx, "k", func(ctx context.Context) (Value, error) {
				runs.Add(1)
				close(inFn)
				<-ctx.Done() // a context-aware pipeline stage aborting
				return nil, ctx.Err()
			})
			leaderDone <- err
		}()
		<-inFn

		type res struct {
			v   Value
			out Outcome
			err error
		}
		waiterDone := make(chan res, 1)
		go func() {
			v, out, err := c.GetOrCompute(context.Background(), "k", func(ctx context.Context) (Value, error) {
				runs.Add(1)
				return &blob{id: "promoted", size: 4}, nil
			})
			waiterDone <- res{v, out, err}
		}()
		// Let the waiter register on the in-flight call, then kill only the
		// leader's context.
		waitFor(t, "waiter never registered", coalesced(c))
		cancelLeader()

		if err := <-leaderDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader err = %v, want context.Canceled", err)
		}
		r := <-waiterDone
		if r.err != nil {
			t.Fatalf("promoted waiter inherited the leader's fate: %v", r.err)
		}
		if r.out != Miss || r.v.(*blob).id != "promoted" {
			t.Fatalf("promoted waiter: v=%v out=%v", r.v, r.out)
		}
		if n := runs.Load(); n != 2 {
			t.Fatalf("fn ran %d times, want 2 (leader + promoted waiter)", n)
		}
		if s := c.Stats(); s.Promoted != 1 {
			t.Fatalf("stats = %+v, want one promotion", s)
		}
		// The promoted run populated the cache for everyone after.
		if !resident(c, "k") {
			t.Fatal("promoted run did not populate the cache")
		}
	})
}

// A waiter whose own context died alongside the leader's is NOT
// promoted: it reports its own cancellation.
func TestWaiterNotPromotedWhenOwnContextDead(t *testing.T) {
	eachCensus(t, func(t *testing.T, newCache func(int64) *Cache) {
		c := newCache(0)
		shared, cancelShared := context.WithCancel(context.Background())
		inFn := make(chan struct{})
		go c.GetOrCompute(shared, "k", func(ctx context.Context) (Value, error) {
			close(inFn)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		<-inFn
		waiterErr := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrCompute(shared, "k", func(context.Context) (Value, error) {
				t.Error("doomed waiter must not be promoted")
				return nil, nil
			})
			waiterErr <- err
		}()
		waitFor(t, "waiter never registered", coalesced(c))
		cancelShared()
		if err := <-waiterErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("doomed waiter err = %v, want context.Canceled", err)
		}
	})
}

// TestCensus pins what each constructor counts: the same lookup
// sequence (miss, hit, then a miss joined by a coalesced waiter that
// evicts the first key) lands on split cache.* outcomes for a serving
// cache and on the scheduling-independent memo.builds/memo.reused for a
// stage memo, with matching span names and labels.
func TestCensus(t *testing.T) {
	cases := []struct {
		name     string
		new      func(int64) *Cache
		span     string
		args     []string // sorted span args, one string per lookup
		counters map[string]int64
		gauges   map[string]int64
	}{
		{
			name: "serve", new: New, span: "cache.lookup",
			args: []string{"outcome=coalesced", "outcome=hit", "outcome=miss", "outcome=miss"},
			counters: map[string]int64{
				"cache.misses": 2, "cache.hits": 1, "cache.coalesced": 1, "cache.evictions": 1,
				"memo.builds": 0, "memo.reused": 0,
			},
		},
		{
			name: "memo", new: NewMemo, span: "memo.lookup",
			args: []string{"stage=tess outcome=built", "stage=tess outcome=built",
				"stage=tess outcome=reused", "stage=tess outcome=reused"},
			counters: map[string]int64{
				"memo.builds": 2, "memo.reused": 2, "memo.lookup.calls": 4,
				"cache.misses": 0, "cache.hits": 0, "cache.coalesced": 0,
			},
			gauges: map[string]int64{"memo.evictions": 1},
		},
	}
	reg := obs.Default()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := map[string]int64{}
			for name := range tc.counters {
				before[name] = reg.Counter(name).Value()
			}
			for name := range tc.gauges {
				before[name] = reg.Gauge(name).Value()
			}
			trace.Default().Reset()

			c := tc.new(10)
			ctx := context.Background()
			c.GetOrCompute(ctx, "tess/a", compute("a", 10))
			c.GetOrCompute(ctx, "tess/a", compute("a", 10))
			gate := make(chan struct{})
			leader := make(chan struct{})
			go func() {
				defer close(leader)
				c.GetOrCompute(ctx, "tess/b", func(context.Context) (Value, error) {
					<-gate
					return &blob{id: "b", size: 10}, nil
				})
			}()
			waitFor(t, "leader never started", func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.flight["tess/b"] != nil
			})
			go func() {
				for !coalesced(c)() {
					time.Sleep(time.Millisecond)
				}
				close(gate)
			}()
			c.GetOrCompute(ctx, "tess/b", compute("never", 1))
			<-leader

			for name, want := range tc.counters {
				if got := reg.Counter(name).Value() - before[name]; got != want {
					t.Errorf("counter %s moved by %d, want %d", name, got, want)
				}
			}
			for name, want := range tc.gauges {
				if got := reg.Gauge(name).Value() - before[name]; got != want {
					t.Errorf("gauge %s moved by %d, want %d", name, got, want)
				}
			}
			var args []string
			for _, ev := range trace.Default().Events() {
				if ev.Name != tc.span {
					continue
				}
				var kv []string
				for _, a := range ev.Args {
					kv = append(kv, a.Key+"="+a.Value)
				}
				args = append(args, strings.Join(kv, " "))
			}
			sort.Strings(args)
			if fmt.Sprint(args) != fmt.Sprint(tc.args) {
				t.Errorf("%s span args = %q, want %q", tc.span, args, tc.args)
			}
		})
	}
}

// fakeStore is an in-memory cache.Store for tier tests.
type fakeStore struct {
	mu   sync.Mutex
	m    map[Key][]byte
	gets int
	puts int
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[Key][]byte{}} }

func (f *fakeStore) Get(_ context.Context, key Key) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	data, ok := f.m[key]
	return data, ok
}

func (f *fakeStore) Put(_ context.Context, key Key, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.m[key] = append([]byte(nil), data...)
	return nil
}

// blobCodec round-trips blob values as "<id>" payloads.
type blobCodec struct{ failDecode bool }

func (c blobCodec) Encode(v Value) ([]byte, error) { return []byte(v.(*blob).id), nil }
func (c blobCodec) Decode(data []byte) (Value, error) {
	if c.failDecode {
		return nil, errors.New("undecodable")
	}
	return &blob{id: string(data), size: int64(len(data))}, nil
}

// A computed value is written through to the store, and a fresh cache
// instance over the same store restores it without recomputing — the
// restart-warm contract.
func TestTieredWriteThroughAndDiskHit(t *testing.T) {
	store := newFakeStore()
	c1 := NewTiered(0, store, blobCodec{})
	v, out, err := c1.GetOrCompute(context.Background(), "k", compute("computed", 8))
	if err != nil || out != Miss || v.(*blob).id != "computed" {
		t.Fatalf("first call: v=%v out=%v err=%v", v, out, err)
	}
	if store.puts != 1 {
		t.Fatalf("puts = %d, want 1 (write-through)", store.puts)
	}

	// "Restart": a new memory tier over the same store.
	c2 := NewTiered(0, store, blobCodec{})
	v, out, err = c2.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
		t.Error("disk hit must not recompute")
		return nil, nil
	})
	if err != nil || out != DiskHit || v.(*blob).id != "computed" {
		t.Fatalf("restart call: v=%v out=%v err=%v", v, out, err)
	}
	if out.String() != "disk_hit" {
		t.Fatalf("outcome string = %q", out.String())
	}
	// The disk hit populated the memory tier: the next call is a plain hit.
	_, out, err = c2.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
		return nil, errors.New("unreachable")
	})
	if err != nil || out != Hit {
		t.Fatalf("after disk hit: out=%v err=%v", out, err)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A payload the codec cannot decode falls back to recomputation and is
// overwritten — never served, never fatal.
func TestTieredDecodeFailureRecomputes(t *testing.T) {
	store := newFakeStore()
	store.m["k"] = []byte("from-old-build")
	c := NewTiered(0, store, blobCodec{failDecode: true})
	v, out, err := c.GetOrCompute(context.Background(), "k", compute("fresh", 5))
	if err != nil || out != Miss || v.(*blob).id != "fresh" {
		t.Fatalf("v=%v out=%v err=%v", v, out, err)
	}
	if store.puts != 1 {
		t.Fatalf("puts = %d; recomputed value must overwrite the bad payload", store.puts)
	}
}

// A failed computation is not written through.
func TestTieredErrorsNotPersisted(t *testing.T) {
	store := newFakeStore()
	c := NewTiered(0, store, blobCodec{})
	_, _, err := c.GetOrCompute(context.Background(), "k", func(context.Context) (Value, error) {
		return nil, errors.New("boom")
	})
	if err == nil || store.puts != 0 {
		t.Fatalf("err=%v puts=%d", err, store.puts)
	}
}
