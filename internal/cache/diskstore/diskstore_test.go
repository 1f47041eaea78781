package diskstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"obfuscade/internal/cache"
)

// key derives a valid content address from a short test name.
func key(name string) cache.Key {
	return cache.KeyOf([]byte(name))
}

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	ctx := context.Background()
	payload := []byte("protected STL bytes")
	if err := s.Put(ctx, key("a"), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(ctx, key("a"))
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(ctx, key("missing")); ok {
		t.Fatal("absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(headerSize+len(payload)) {
		t.Fatalf("bytes = %d, want header %d + payload %d", st.Bytes, headerSize, len(payload))
	}
}

// The store survives a restart: a fresh Open over the same directory
// serves the same bytes — the whole point of the disk tier.
func TestReopenServesSameBytes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	payload := []byte(strings.Repeat("stl", 1000))

	s1 := open(t, dir, 0)
	if err := s1.Put(ctx, key("warm"), payload); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	got, ok := s2.Get(ctx, key("warm"))
	if !ok || string(got) != string(payload) {
		t.Fatalf("reopened store: Get = %d bytes, %v", len(got), ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d objects, want 1", s2.Len())
	}
}

// A corrupted object must never be served: the self-check fails, the
// file is deleted, and the lookup degrades to a miss.
func TestCorruptObjectDroppedNotServed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := open(t, dir, 0)
	if err := s.Put(ctx, key("c"), []byte("pristine payload")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk behind the store's back.
	path := s.objectPath(key("c"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(ctx, key("c")); ok {
		t.Fatal("corrupt object served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt object not deleted: %v", err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Truncation inside the header is caught too.
	if err := s.Put(ctx, key("t"), []byte("second payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(key("t")), []byte("OBF"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ctx, key("t")); ok {
		t.Fatal("truncated object served")
	}
}

// Open sweeps temp files left by a crashed writer and ignores foreign
// file names, so a dirty directory heals instead of erroring.
func TestOpenSweepsTempAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	objects := filepath.Join(dir, objectsDir)
	if err := os.MkdirAll(objects, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(objects, tmpPrefix+"halfwrite")
	foreign := filepath.Join(objects, "not-a-key.stl")
	for _, p := range []string{tmp, foreign} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, 0)
	if s.Len() != 0 {
		t.Fatalf("indexed %d objects from junk", s.Len())
	}
	for _, p := range []string{tmp, foreign} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open", p)
		}
	}
}

func TestMalformedKeyRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	ctx := context.Background()
	for _, bad := range []cache.Key{"", "short", cache.Key("../../etc/passwd" + strings.Repeat("a", 48)), cache.Key(strings.Repeat("Z", 64))} {
		if err := s.Put(ctx, bad, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", bad)
		}
		if _, ok := s.Get(ctx, bad); ok {
			t.Fatalf("key %q hit", bad)
		}
	}
	if st := s.Stats(); st.PutErrors == 0 {
		t.Fatalf("put errors uncounted: %+v", st)
	}
}

// GC evicts by recency, and recency survives a restart through the
// atime journal: touching an old object saves it from eviction even
// after the process bounces.
func TestGCEvictsLRUAndJournalPersistsRecency(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	payload := []byte(strings.Repeat("x", 100))
	size := int64(headerSize + len(payload))

	s1 := open(t, dir, 3*size)
	for _, n := range []string{"a", "b", "c"} {
		if err := s1.Put(ctx, key(n), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is now the LRU object, then restart.
	if _, ok := s1.Get(ctx, key("a")); !ok {
		t.Fatal("a missing")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 3*size)
	if err := s2.Put(ctx, key("d"), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(ctx, key("b")); ok {
		t.Fatal("LRU object b survived GC after restart")
	}
	for _, n := range []string{"a", "c", "d"} {
		if _, ok := s2.Get(ctx, key(n)); !ok {
			t.Fatalf("object %s evicted out of LRU order", n)
		}
	}
	if st := s2.Stats(); st.GCEvictions != 1 {
		t.Fatalf("gc evictions = %d, want 1", st.GCEvictions)
	}
}

// Shrinking the budget between runs brings residency back under it at
// Open, oldest first.
func TestOpenGCsWhenBudgetShrank(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	payload := []byte(strings.Repeat("y", 50))
	size := int64(headerSize + len(payload))

	s1 := open(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := s1.Put(ctx, key(fmt.Sprintf("k%d", i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()

	s2 := open(t, dir, 2*size)
	if n := s2.Len(); n != 2 {
		t.Fatalf("after shrink: %d objects resident, want 2", n)
	}
	if s2.Bytes() > 2*size {
		t.Fatalf("resident bytes %d exceed shrunk budget %d", s2.Bytes(), 2*size)
	}
}

func TestOversizePayloadNotStored(t *testing.T) {
	s := open(t, t.TempDir(), int64(headerSize)+10)
	ctx := context.Background()
	if err := s.Put(ctx, key("big"), []byte(strings.Repeat("b", 11))); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatal("payload larger than the whole budget was stored")
	}
	if err := s.Put(ctx, key("fits"), []byte(strings.Repeat("f", 10))); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatal("budget-sized payload rejected")
	}
}

// No temp files survive a completed Put: the atomic protocol leaves
// only renamed objects behind.
func TestNoTempFilesAfterPut(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := s.Put(ctx, key(fmt.Sprintf("n%d", i)), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Fatalf("temp file %s left behind", de.Name())
		}
	}
}

// The journal compacts once appends outgrow the slack bound instead of
// growing without limit under a hot read loop.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	ctx := context.Background()
	if err := s.Put(ctx, key("hot"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < journalSlack+100; i++ {
		if _, ok := s.Get(ctx, key("hot")); !ok {
			t.Fatal("hot key missed")
		}
	}
	info, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// Each journal line is ~85 bytes; without compaction the loop above
	// would leave ~95KB behind. A compacted journal carries only the
	// appends since the last compaction (< journalSlack lines).
	if info.Size() > int64(journalSlack)*45 {
		t.Fatalf("journal grew to %d bytes; compaction never ran", info.Size())
	}
}

// Concurrency hammer (run under -race): mixed puts, gets and GC churn
// on a tight budget must stay consistent.
// A crash immediately after journal compaction can tear the rename:
// with the directory entry never fsynced, the old journal is gone and
// the new one never became durable. The store must shrug — every object
// still serves, and recency degrades to mtime order instead of failing
// Open or losing data.
func TestTornJournalAfterCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := open(t, dir, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := s1.Put(ctx, key(k), []byte("payload-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s1.mu.Lock()
	err := s1.compactJournalLocked()
	s1.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn state: the compacted journal vanished.
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if s2.Len() != 3 {
		t.Fatalf("reopened store indexed %d objects, want 3", s2.Len())
	}
	for _, k := range []string{"a", "b", "c"} {
		got, ok := s2.Get(ctx, key(k))
		if !ok || string(got) != "payload-"+k {
			t.Fatalf("key %s: Get = %q, %v", k, got, ok)
		}
	}
	// The journal reopened for appending: recency written now must
	// survive the next restart even though the old journal was lost.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); err != nil {
		t.Fatalf("journal not recreated after torn state: %v", err)
	}
}

// A half-written journal line (crash mid-append) is skipped without
// failing Open, and complete lines still replay.
func TestTornJournalLineIgnored(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1 := open(t, dir, 0)
	for _, k := range []string{"a", "b"} {
		if err := s1.Put(ctx, key(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1234 deadbeef"); err != nil { // torn: no newline, bogus key
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir, 0)
	if s2.Len() != 2 {
		t.Fatalf("reopened store indexed %d objects, want 2", s2.Len())
	}
}

func TestConcurrencyHammer(t *testing.T) {
	const (
		goroutines = 8
		iterations = 60
		uniqueKeys = 12
	)
	payload := []byte(strings.Repeat("p", 64))
	size := int64(headerSize + len(payload))
	s := open(t, t.TempDir(), size*uniqueKeys/2)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := key(fmt.Sprintf("key-%d", (g*5+i)%uniqueKeys))
				if i%3 == 0 {
					if err := s.Put(ctx, k, payload); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				} else if data, ok := s.Get(ctx, k); ok && string(data) != string(payload) {
					t.Errorf("hit returned wrong bytes")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Corrupt != 0 || st.PutErrors != 0 {
		t.Fatalf("hammer corrupted the store: %+v", st)
	}
	if st.GCEvictions == 0 {
		t.Fatal("hammer never evicted; budget too large to bite")
	}
	if s.Bytes() > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed budget %d", s.Bytes(), st.MaxBytes)
	}
}

func BenchmarkPutGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	payload := []byte(strings.Repeat("s", 32<<10)) // ~a coarse STL
	k := key("bench")
	if err := s.Put(ctx, k, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(ctx, k); !ok {
			b.Fatal("miss")
		}
	}
}

// Bytes returns the resident on-disk byte total (headers included).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
